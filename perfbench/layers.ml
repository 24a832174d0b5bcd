(* Timed calls into each layer's public entry point, made from outside
   the compiler, plus the correctness checks on what they return.

   Every call goes through [timed], which adds the call's host time to a
   named stage of the pass, its allocation (when it runs on this domain
   only) to the pass's total, opens a span named after the layer when
   tracing is on, and then runs a calibration slice ({!Calib}).  Exact counts the layers report go to [counts];
   they must repeat exactly for a given seed. *)

open Mcc_core
open Mcc_m2
open Mcc_sem
module Cunit = Mcc_codegen.Cunit
module Emit = Mcc_codegen.Emit
module P = Mcc_parse.Parser
module Eff = Mcc_sched.Eff
module Des = Mcc_sched.Des_engine

exception Check_failed of string

type acc = {
  counts : (string, float) Hashtbl.t;  (** exact, seed-determined *)
  stages : (string, float) Hashtbl.t;  (** host ns per stage *)
  mutable lat_ms : float list;  (** per-rebuild host ms *)
  mutable alloc_words : float;
  programs : (string, int) Hashtbl.t;  (** instructions per distinct program *)
}

let make_acc () =
  {
    counts = Hashtbl.create 64;
    stages = Hashtbl.create 16;
    lat_ms = [];
    alloc_words = 0.0;
    programs = Hashtbl.create 64;
  }

let get tbl k = Option.value ~default:0.0 (Hashtbl.find_opt tbl k)
let add acc k v = Hashtbl.replace acc.counts k (get acc.counts k +. v)
let addi acc k n = add acc k (float_of_int n)

(* Count a produced program's size once, however often it is built. *)
let code acc key program = Hashtbl.replace acc.programs key (Cunit.total_instrs program)

(* A digest of digests, so that no copy of all the sources is made. *)
let sources_digest stores =
  let digest s =
    let defs = List.filter_map (Source_store.def_src s) (Source_store.def_names s) in
    let impls = List.filter_map (Source_store.impl_src s) (Source_store.impl_names s) in
    String.concat "" (List.map Digest.string ((Source_store.main_src s :: defs) @ impls))
  in
  Digest.to_hex (Digest.string (String.concat "" (List.map digest stores)))

let allocated () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let timed acc ?(single_domain = true) stage layer f =
  let w0 = allocated () in
  let t0 = Span.now () in
  let r = Span.with_span layer f in
  let dt = Int64.to_float (Int64.sub (Span.now ()) t0) in
  if single_domain then acc.alloc_words <- acc.alloc_words +. (allocated () -. w0);
  Hashtbl.replace acc.stages stage (get acc.stages stage +. dt);
  Calib.run ~after_ns:dt;
  r

(* checks attempted in this run *)
let checks = ref 0

let check name ok detail =
  incr checks;
  if not ok then raise (Check_failed (name ^ ": " ^ detail ()))

let obs_digest program diags ok =
  Digest.to_hex
    (Digest.string
       (String.concat "\n"
          (Cunit.disassemble program :: string_of_bool ok :: List.map Diag.to_string diags)))


(* ---- the sequential pipeline, split into its phases ------------------

   The wiring of [Seq_driver.compile], driven from outside one phase at a
   time: each file is lexed whole, its tokens replayed into the parser
   through [Reader.of_list], then every statement part is code-generated
   and the units are linked.  Interfaces are still processed depth-first
   at their import sites, so a definition module's lexing and parsing
   nest inside the importer's parse.  Each phase's direct-mode work units
   are attributed to it alone (nested phases excluded). *)

let nested_units = ref 0.0

let phase acc layer f =
  Eff.flush ();
  let u0 = Eff.get_direct_total () in
  let outer = !nested_units in
  nested_units := 0.0;
  let r = Span.with_span layer f in
  Eff.flush ();
  let du = Eff.get_direct_total () -. u0 in
  add acc (layer ^ ".units") (du -. !nested_units);
  nested_units := outer +. du;
  r

let lex acc ~file src =
  phase acc "lexer" (fun () ->
      let lx = Lexer.create ~file src in
      let rec go toks =
        let t = Lexer.next lx in
        if t.Token.kind = Token.Eof then List.rev (t :: toks) else go (t :: toks)
      in
      let toks = go [] in
      addi acc "lexer.tokens" (List.length toks);
      toks)

type comp = {
  store : Source_store.t;
  diags : Diag.t;
  stats : Lookup_stats.t;
  registry : Modreg.t;
  missing : (string, unit) Hashtbl.t;
  mutable jobs : P.gen_job list;  (** reversed *)
  mutable frames : (string * (int * Mcc_codegen.Tydesc.t) list * int) list;
}

let ctx comp ~scope ~file ~frame_key ~path ~is_def =
  Ctx.make ~scope ~file ~diags:comp.diags ~strategy:Symtab.Sequential ~stats:comp.stats
    ~registry:comp.registry ~frame_key ~path ~is_module_level:true ~is_def

let rec ensure_def acc comp name =
  let scope, created = Modreg.intern comp.registry name in
  if created then
    match Source_store.def_src comp.store name with
    | None ->
        Hashtbl.replace comp.missing name ();
        Symtab.mark_complete scope;
        None
    | Some src ->
        let file = Source_store.def_file name in
        let toks = lex acc ~file src in
        let fk = name ^ "!def" in
        let c = ctx comp ~scope ~file ~frame_key:fk ~path:name ~is_def:true in
        phase acc "parse" (fun () ->
            let p = P.create ~cb:(callbacks acc comp) (Reader.of_list toks) in
            P.parse_def_module c p ~expected_name:name;
            let _, slots, size = Emit.frame_layout scope ~frame_key:fk ~size:c.Ctx.next_slot in
            comp.frames <- (fk, slots, size) :: comp.frames);
        Some scope
  else if Hashtbl.mem comp.missing name then None
  else Some scope

and callbacks acc comp : P.callbacks =
  {
    P.cb_import = (fun _ (mid : Mcc_ast.Ast.ident) -> ensure_def acc comp mid.Mcc_ast.Ast.name);
    P.cb_heading = (fun _ _ ~stream:_ -> ());
    P.cb_body =
      (fun gj ->
        (if gj.P.gj_sig = None then
           let c = gj.P.gj_ctx in
           let fk = c.Ctx.frame_key in
           let _, slots, size = Emit.frame_layout c.Ctx.scope ~frame_key:fk ~size:c.Ctx.next_slot in
           comp.frames <- (fk, slots, size) :: comp.frames);
        comp.jobs <- gj :: comp.jobs);
  }

(* Returns the linked program, diagnostics, and the units charged. *)
let split acc store =
  let m = Source_store.main_name store in
  let comp =
    {
      store;
      diags = Diag.create ();
      stats = Lookup_stats.create ();
      registry = Modreg.create ();
      missing = Hashtbl.create 8;
      jobs = [];
      frames = [];
    }
  in
  Eff.mode := Eff.Direct;
  Eff.acc := 0;
  Eff.reset_direct_total ();
  let own_def = if Source_store.has_def store m then ensure_def acc comp m else None in
  let file = Source_store.main_file store in
  let toks = lex acc ~file (Source_store.main_src store) in
  let scope = Symtab.create ?parent:own_def (Symtab.KMain m) in
  let c = ctx comp ~scope ~file ~frame_key:m ~path:m ~is_def:false in
  phase acc "parse" (fun () ->
      P.parse_impl_module c (P.create ~cb:(callbacks acc comp) (Reader.of_list toks)) ~expected_name:m);
  let units = List.rev_map (fun gj -> phase acc "emit" (fun () -> Emit.emit_job gj)) comp.jobs in
  addi acc "emit.jobs" (List.length units);
  let program = phase acc "link" (fun () -> Cunit.link ~entry:m ~frames:comp.frames units) in
  addi acc "link.units" (List.length units);
  (program, Diag.sorted comp.diags, Eff.get_direct_total ())

(* ---- engines ---------------------------------------------------------- *)

let seq acc store =
  Eff.acc := 0;
  let r = timed acc "seq" "seq" (fun () -> Seq_driver.compile store) in
  (* [Seq_driver] reports the flushed total; the last partial quantum is
     still in the accumulator *)
  let residue = float_of_int !Eff.acc in
  Eff.acc := 0;
  check "seq compile reports ok" r.Seq_driver.ok (fun () -> Source_store.main_name store);
  code acc (Source_store.main_name store) r.Seq_driver.program;
  add acc "seq.units" r.Seq_driver.cost_units;
  (r, r.Seq_driver.cost_units +. residue)

(* [reference] is the sequential program's listing.  A mismatch names
   the first line that differs. *)
let same_program what store ~reference program =
  let listing = Cunit.disassemble program in
  check (what ^ " program is byte-identical to the sequential compiler's") (listing = reference)
    (fun () ->
      let name = Source_store.main_name store in
      let rec first i = function
        | x :: xs, y :: ys when x = y -> first (i + 1) (xs, ys)
        | x :: _, y :: _ -> Printf.sprintf "%s, listing line %d: sequential %S, %s %S" name i x what y
        | _ -> Printf.sprintf "%s, listing line %d: one listing ends" name i
      in
      first 1 (String.split_on_char '\n' reference, String.split_on_char '\n' listing))

(* The phase-split pipeline must reproduce [Seq_driver.compile] exactly:
   the same program and diagnostics, and its phases' units must sum to
   the sequential compile's units. *)
let split_checked acc store ~(seq : Seq_driver.result) ~seq_units =
  let program, diags, units = timed acc "split" "split" (fun () -> split acc store) in
  same_program "phase-split" store ~reference:(Cunit.disassemble seq.Seq_driver.program) program;
  check "phase-split diagnostics equal the sequential compiler's"
    (List.map Diag.to_string diags = List.map Diag.to_string seq.Seq_driver.diags)
    (fun () -> Source_store.main_name store);
  check "phase-split units sum to the sequential compile's units" (units = seq_units) (fun () ->
      Printf.sprintf "%.0f vs %.0f" units seq_units)

let des acc ~procs ~reference store =
  let stage = Printf.sprintf "des%d" procs in
  let r =
    timed acc stage "des" (fun () ->
        Driver.compile ~config:{ Driver.default_config with Driver.procs } store)
  in
  check (stage ^ " reports ok, no deadlock")
    (r.Driver.ok && r.Driver.deadlock = [] && r.Driver.sim.Des.outcome = Des.Completed)
    (fun () -> Source_store.main_name store);
  same_program stage store ~reference r.Driver.program;
  addi acc (stage ^ ".tasks") r.Driver.sim.Des.tasks_run;
  add acc (stage ^ ".units") r.Driver.sim.Des.end_time;
  addi acc (stage ^ ".handled_blocks") r.Driver.sim.Des.handled_blocks;
  addi acc (stage ^ ".dky_blocks") (Lookup_stats.dky_blocks r.Driver.stats)

let dom acc ~domains ~reference store =
  let stage = Printf.sprintf "dom%d" domains in
  let r =
    timed acc stage "dom" ~single_domain:(domains = 1) (fun () -> Driver.compile_domains ~domains store)
  in
  check (stage ^ " reports ok, no deadlock")
    (r.Driver.d_ok && not r.Driver.d_deadlocked)
    (fun () -> Source_store.main_name store);
  same_program stage store ~reference r.Driver.d_program;
  addi acc (stage ^ ".tasks") r.Driver.d_tasks_run

let vm acc ?fuel program =
  let r = timed acc "vm" "vm" (fun () -> Mcc_vm.Vm.run ?fuel program) in
  addi acc "vm.steps" r.Mcc_vm.Vm.steps;
  r

(* seq, phase-split, DES at 1 and 8 processors, domains at 1 and 2, all
   checked against the sequential program *)
let engines acc store =
  let s, seq_units = seq acc store in
  let reference = Cunit.disassemble s.Seq_driver.program in
  split_checked acc store ~seq:s ~seq_units;
  des acc ~procs:1 ~reference store;
  des acc ~procs:8 ~reference store;
  dom acc ~domains:1 ~reference store;
  dom acc ~domains:2 ~reference store;
  s

(* ---- cache, project, serve, farm ---------------------------------------- *)

let project acc stage ?cache store =
  let r = timed acc stage "project" (fun () -> Project.compile ?cache store) in
  check (stage ^ " reports ok") r.Project.ok (fun () -> Source_store.main_name store);
  code acc (sources_digest [ store ]) r.Project.program;
  r

let project_obs (r : Project.result) = obs_digest r.Project.program r.Project.diags r.Project.ok

let rebuild acc ~(cache : Project.cache) store =
  let before = get acc.stages "rebuild" in
  let r = project acc "rebuild" ~cache store in
  acc.lat_ms <- ((get acc.stages "rebuild" -. before) /. 1e6) :: acc.lat_ms;
  addi acc "project.modules" (List.length r.Project.modules);
  addi acc "project.recompiled" (List.length r.Project.recompiled);
  addi acc "project.cutoffs" (List.length r.Project.cutoffs);
  add acc "project.reuse_units" r.Project.reuse_units;
  add acc "project.refresh_units" r.Project.refresh_units;
  r

let cache_counters acc (c : Project.cache) =
  let hits, misses, _ = Build_cache.counters c.Project.bc in
  addi acc "cache.hits" hits;
  addi acc "cache.misses" misses;
  addi acc "cache.evictions" (Build_cache.eviction_count c.Project.bc);
  addi acc "cache.bytes" (Build_cache.total_bytes c.Project.bc)

(* The cache layer's own entry points, called directly on a project that
   was just built into [c]: fingerprint every interface and the main
   module (hash), look each key up again (probe), and store every
   interface artifact and the main module's result into an empty cache
   (store). *)
let cache_calls acc (c : Project.cache) store =
  let bc = c.Project.bc in
  let names = Source_store.def_names store in
  let memo = Hashtbl.create 16 in
  let config_tag = Project.config_tag Driver.default_config in
  let fps, mkey =
    timed acc "cache.hash" "cache.hash" (fun () ->
        let fps = List.map (fun n -> fst (Build_cache.interface_fp bc ~memo ~store n)) names in
        (fps, fst (Build_cache.module_key bc ~memo ~config_tag store)))
  in
  let found, entry =
    timed acc "cache.probe" "cache.probe" (fun () ->
        ( List.filter_map (fun fp -> Build_cache.find_interface bc ~fp) fps,
          Build_cache.find_module c.Project.memo mkey ))
  in
  let artifacts = Build_cache.interfaces bc in
  timed acc "cache.store" "cache.store" (fun () ->
      let fresh = Build_cache.create () and memo = Build_cache.memo () in
      List.iter (Build_cache.store_interface fresh) artifacts;
      Option.iter (Build_cache.store_module memo ~name:"main" ~key:mkey) entry);
  let keys = List.length fps + 1 and entries = List.length found + List.length (Option.to_list entry) in
  check "every key fingerprinted right after a build is found in the cache" (entries = keys)
    (fun () -> Printf.sprintf "%s: %d of %d" (Source_store.main_name store) entries keys);
  addi acc "cache.hash.calls" keys;
  addi acc "cache.probe.calls" keys;
  addi acc "cache.store.calls" (List.length artifacts + List.length (Option.to_list entry))

let serve acc jobs =
  let r =
    timed acc "serve" "serve" (fun () ->
        Mcc_serve.Server.serve ~cache:(Mcc_serve.Server.cache ()) Mcc_serve.Server.default_config jobs)
  in
  let open Mcc_serve.Server in
  addi acc "serve.jobs" r.r_submitted;
  addi acc "serve.served" r.r_served;
  addi acc "serve.warm" r.r_warm;
  addi acc "serve.shed" (r.r_shed + r.r_deadline_shed);
  addi acc "serve.batches" r.r_batches;
  add acc "serve.sojourn_p50_vs" r.r_p50;
  add acc "serve.sojourn_p99_vs" r.r_p99;
  (* served programs are not counted in [code_instrs]: which of them a
     trace requests depends on its seed *)
  r

let serve_digest (r : Mcc_serve.Server.report) =
  Digest.to_hex
    (Digest.string
       (String.concat ";"
          (List.map
             (fun (s : Mcc_serve.Request.served) ->
               let d = s.Mcc_serve.Request.s_result in
               Printf.sprintf "%d:%s" s.Mcc_serve.Request.s_job.Mcc_serve.Request.j_id
                 (obs_digest d.Driver.program d.Driver.diags d.Driver.ok))
             r.Mcc_serve.Server.r_served_jobs)))

let farm acc store =
  let r = timed acc "farm" "farm" (fun () -> Mcc_farm.Farm.run Mcc_farm.Farm.default_config store) in
  let open Mcc_farm.Farm in
  check "farm run reports ok" r.f_ok (fun () -> Source_store.main_name store);
  addi acc "farm.closures" r.f_tasks;
  addi acc "farm.fetches" r.f_fetches;
  addi acc "farm.steals" r.f_steals;
  addi acc "farm.rpc_retries" r.f_rpc_retries;
  add acc "farm.makespan_vs" r.f_makespan;
  Hashtbl.replace acc.programs "farm" (List.fold_left ( + ) 0 r.f_obs.Mcc_check.Observation.unit_sizes);
  r
