(* The four workloads: inputs generated from the seed, and one pass over
   them.  Seeds perturb generated contents only, never program shapes or
   counts, so figures from different seeds stay comparable. *)

open Mcc_core
open Mcc_synth
module L = Layers

type inputs = {
  digest : string;  (** of every generated source *)
  pass : L.acc -> unit;
}

type t = { name : string; setup : seed:int -> inputs }

(* [Suite.program ~seed] without its memo table, so that every set-up
   generates the programs again. *)
let suite_program ~seed rank =
  let shape = List.nth Suite.shapes rank in
  let gen_seed = if seed = 0 then shape.Gen.seed else shape.Gen.seed + (seed * 1_000_003) in
  Gen.generate ~seed:gen_seed shape

let warm stores = List.iter (fun s -> ignore (Seq_driver.compile s)) stores

let make stores pass =
  warm stores;
  { digest = L.sources_digest stores; pass }

(* ---- suite ------------------------------------------------------------- *)

let suite =
  {
    name = "suite";
    setup =
      (fun ~seed ->
        let stores = List.init Suite.n_programs (suite_program ~seed) in
        make stores (fun acc ->
            List.iter (fun s -> ignore (L.engines acc s)) stores));
  }

(* ---- many-procs ---------------------------------------------------------- *)

let many_procs_size = 4000

(* What the generated program prints: the sum of the literals returned
   by its first 16 procedures, read from the source text. *)
let many_procs_expected src =
  let returns =
    List.filter_map
      (fun line ->
        match String.split_on_char ' ' (String.trim line) with
        | "PROCEDURE" :: _ :: _ :: "BEGIN" :: "RETURN" :: n :: _ -> int_of_string_opt n
        | _ -> None)
      (String.split_on_char '\n' src)
  in
  List.fold_left ( + ) 0 (List.filteri (fun i _ -> i < 16) returns)

let many_procs =
  {
    name = "many-procs";
    setup =
      (fun ~seed ->
        let store =
          Mcc_zoo.Shapes.generate ~seed (Mcc_zoo.Shapes.Many_procs { procs = many_procs_size })
        in
        let expected = string_of_int (many_procs_expected (Source_store.main_src store)) in
        make [ store ] (fun acc ->
            let s = L.engines acc store in
            let r = L.vm acc s.Seq_driver.program in
            L.check "VM output equals the sum of the first 16 RETURN literals"
              (r.Mcc_vm.Vm.status = Mcc_vm.Vm.Finished && String.trim r.Mcc_vm.Vm.output = expected)
              (fun () -> Printf.sprintf "got %S, expected %s" r.Mcc_vm.Vm.output expected)));
  }

(* ---- edit ---------------------------------------------------------------- *)

(* The 28 smallest programs of the canonical suite (ranks 0-27); every
   one has at least four interfaces.  The nine largest are left out
   because checking each of their rebuilds against a cacheless build
   would take longer than a run measures.  The seed drives the edit
   streams only: seed-perturbed programs made the work per pass spread
   by 15% between seeds. *)
let edit_ranks = List.init 28 Fun.id
let edits_per_program = 12

let edit =
  {
    name = "edit";
    setup =
      (fun ~seed ->
        let projects =
          List.map
            (fun rank ->
              let s0 = suite_program ~seed:0 rank in
              let edits = Gen.edit_stream ~seed:((seed * 1009) + rank) ~n:edits_per_program s0 in
              (rank, Gen.with_impls s0, edits))
            edit_ranks
        in
        let stores = List.map (fun (_, base, _) -> base) projects in
        let edited = List.concat_map (fun (_, _, es) -> List.map (fun e -> e.Gen.e_store) es) projects in
        (* reference observations of every edited store, from cacheless
           builds made outside the timed calls, once per run *)
        let reference = Hashtbl.create 512 in
        let inputs =
          make stores (fun acc ->
              List.iter
                (fun (rank, base, edits) ->
                  let cache = Project.cache () in
                  let cold = L.project acc "cold_build" ~cache base in
                  L.cache_calls acc cache base;
                  let noop = L.rebuild acc ~cache base in
                  L.check "no-op rebuild recompiles nothing and equals the cold build"
                    (noop.Project.recompiled = [] && L.project_obs noop = L.project_obs cold)
                    (fun () -> Printf.sprintf "program %d" rank);
                  List.iteri
                    (fun i (e : Gen.edit) ->
                      let r = L.rebuild acc ~cache e.Gen.e_store in
                      let expected =
                        match Hashtbl.find_opt reference (rank, i) with
                        | Some d -> d
                        | None ->
                            let d = L.project_obs (Project.compile e.Gen.e_store) in
                            Hashtbl.replace reference (rank, i) d;
                            d
                      in
                      L.check "rebuild equals a cacheless build of the same store"
                        (L.project_obs r = expected) (fun () ->
                          Printf.sprintf "program %d, edit %d (%s of %s)" rank i
                            (Gen.class_name e.Gen.e_class) e.Gen.e_target))
                    edits;
                  L.cache_counters acc cache)
                projects)
        in
        { inputs with digest = L.sources_digest (stores @ edited) });
  }

(* ---- service ------------------------------------------------------------- *)

let farm_modules = 1000
let serve_jobs = 400

let service =
  {
    name = "service";
    setup =
      (fun ~seed ->
        let flat = Mcc_zoo.Scale.flat_store ~seed farm_modules in
        let traffic =
          {
            Mcc_serve.Traffic.default with
            Mcc_serve.Traffic.jobs = serve_jobs;
            seed;
            ranks = List.init Suite.n_programs Fun.id;
            suite_seed = seed;
          }
        in
        let jobs = Mcc_serve.Traffic.generate traffic in
        let job_stores = List.map (fun j -> j.Mcc_serve.Request.j_store) jobs in
        let farm_ref = ref None and serve_ref = ref None in
        let inputs =
          make [ flat ] (fun acc ->
              let f = L.farm acc flat in
              let fd = f.Mcc_farm.Farm.f_obs.Mcc_check.Observation.program_digest in
              (match !farm_ref with
              | None ->
                  let v = Mcc_farm.Farm.verify flat f in
                  L.check "Farm.verify" (Result.is_ok v) (fun () ->
                      Result.fold ~ok:(fun () -> "") ~error:Fun.id v);
                  farm_ref := Some fd
              | Some d -> L.check "farm program repeats" (fd = d) (fun () -> "digest differs"));
              let r = L.serve acc jobs in
              let sd = L.serve_digest r in
              match !serve_ref with
              | None ->
                  let v = Mcc_serve.Server.verify Mcc_serve.Server.default_config r in
                  L.check "Server.verify" (Result.is_ok v) (fun () ->
                      Result.fold ~ok:string_of_int ~error:Fun.id v);
                  serve_ref := Some sd
              | Some d -> L.check "served programs repeat" (sd = d) (fun () -> "digest differs"))
        in
        { inputs with digest = L.sources_digest (flat :: job_stores) });
  }

let all = [ suite; many_procs; edit; service ]
