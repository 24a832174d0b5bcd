(* The artifact pipeline: content-addressed interface cache and
   incremental whole-program builds.

   The load-bearing property is cold/warm equivalence: compiling against
   a warm cache — any DKY strategy, any processor count — must produce
   byte-identical object code and identical diagnostics to a cold
   compilation, because artifacts replay exactly the externally visible
   effects of the def-module streams they replace.  On top of that:
   fingerprint invalidation is precise (editing an interface invalidates
   exactly its transitive dependents), warm DES runs stay deterministic
   (the extended determinism property), Project reuse is per-module
   incremental, and the on-disk store round-trips. *)

open Tutil
open Mcc_core
module Des = Mcc_sched.Des_engine
module Symtab = Mcc_sem.Symtab
module Dtrace = Mcc_obs.Dtrace

let sample_src =
  modsrc
    ~imports:"IMPORT Lib;\nFROM Lib IMPORT base;"
    ~decls:
      {|CONST scaled = base * 2;
VAR g: INTEGER;
PROCEDURE Add(x, y: INTEGER): INTEGER;
BEGIN RETURN x + y END Add;|}
    ~body:"g := Add(Lib.limit, scaled); WriteInt(g)" ()

let sample_defs =
  [
    ( "Lib",
      "DEFINITION MODULE Lib;\nCONST base = 10;\nCONST limit = 5;\nVAR counter: INTEGER;\nEND Lib.\n"
    );
  ]

let sample_store () = store ~defs:sample_defs ~name:"T" sample_src

let config ~strategy ~procs = { Driver.default_config with Driver.strategy; procs }

(* --- cold/warm equivalence, all strategies x processor counts --- *)

let test_warm_equals_cold () =
  List.iter
    (fun strategy ->
      List.iter
        (fun procs ->
          let config = config ~strategy ~procs in
          let cold = Driver.compile ~config (sample_store ()) in
          let cache = Build_cache.create () in
          let warm1 = Driver.compile ~config ~cache (sample_store ()) in
          let warm2 = Driver.compile ~config ~cache (sample_store ()) in
          let tag = Printf.sprintf "%s/%d" (Symtab.dky_name strategy) procs in
          Alcotest.(check (list string)) (tag ^ ": first run misses") [ "Lib" ]
            warm1.Driver.cache_misses;
          Alcotest.(check (list string)) (tag ^ ": second run hits") [ "Lib" ]
            warm2.Driver.cache_hits;
          Alcotest.(check int) (tag ^ ": no def stream on hit") 0 warm2.Driver.n_def_streams;
          List.iter
            (fun (r : Driver.result) ->
              Alcotest.(check bool) (tag ^ ": program identical") true
                (String.equal (dis cold.Driver.program) (dis r.Driver.program));
              Alcotest.(check (list string)) (tag ^ ": diagnostics identical")
                (diag_strings cold.Driver.diags) (diag_strings r.Driver.diags))
            [ warm1; warm2 ])
        [ 1; 3; 8 ])
    Symtab.all_concurrent

(* A warm cache must save virtual work: the hit run replaces the
   interface's lex + parse + declaration analysis with hash + fetch. *)
let test_warm_is_cheaper () =
  let config = Driver.default_config in
  let cache = Build_cache.create () in
  let cold = Driver.compile ~config ~cache (sample_store ()) in
  let warm = Driver.compile ~config ~cache (sample_store ()) in
  Alcotest.(check bool) "warm end time strictly smaller" true
    (warm.Driver.sim.Des.end_time < cold.Driver.sim.Des.end_time)

(* --- property: random programs, warm == cold, diagnostics included --- *)

let prop_warm_equals_cold =
  QCheck.Test.make ~name:"generated programs: warm cache == cold (all strategies)" ~count:6
    QCheck.(int_bound 10_000)
    (fun seed ->
      let shape =
        {
          Mcc_synth.Gen.seed;
          name = "Q";
          n_defs = 3;
          depth = 2;
          n_procs = 4;
          nested_per_proc = 1;
          stmts_lo = 4;
          stmts_hi = 8;
          module_vars = 3;
          def_size = 1;
          pad = 0;
          runnable = false;
        }
      in
      let st = Mcc_synth.Gen.generate shape in
      let cold = Driver.compile st in
      List.for_all
        (fun strategy ->
          List.for_all
            (fun procs ->
              let config = config ~strategy ~procs in
              let cache = Build_cache.create () in
              ignore (Driver.compile ~config ~cache st);
              let warm = Driver.compile ~config ~cache st in
              warm.Driver.cache_misses = []
              && warm.Driver.cache_hits <> []
              && String.equal (dis cold.Driver.program) (dis warm.Driver.program)
              && diag_strings cold.Driver.diags = diag_strings warm.Driver.diags)
            [ 1; 8 ])
        Symtab.all_concurrent)

(* --- precise invalidation: editing a def invalidates its dependents --- *)

let chain_defs ~c_const =
  [
    ("A", "DEFINITION MODULE A;\nCONST ka = 1;\nEND A.\n");
    ("B", "DEFINITION MODULE B;\nFROM C IMPORT kc;\nCONST kb = kc + 1;\nEND B.\n");
    ("C", Printf.sprintf "DEFINITION MODULE C;\nCONST kc = %d;\nEND C.\n" c_const);
  ]

let chain_src =
  modsrc ~imports:"IMPORT A, B;" ~decls:"VAR x: INTEGER;" ~body:"x := A.ka + B.kb" ()

let test_edit_invalidates_exactly_dependents () =
  let cache = Build_cache.create () in
  let st c = store ~defs:(chain_defs ~c_const:c) ~name:"T" chain_src in
  let r1 = Driver.compile ~cache (st 10) in
  Alcotest.(check (list string)) "cold: all miss" [ "A"; "B"; "C" ] r1.Driver.cache_misses;
  let r2 = Driver.compile ~cache (st 10) in
  Alcotest.(check (list string)) "warm: all hit" [ "A"; "B"; "C" ] r2.Driver.cache_hits;
  (* edit C: C itself and its dependent B must miss; A must still hit *)
  let r3 = Driver.compile ~cache (st 11) in
  Alcotest.(check (list string)) "A unaffected" [ "A" ] r3.Driver.cache_hits;
  Alcotest.(check (list string)) "C and its dependent B recompiled" [ "B"; "C" ]
    r3.Driver.cache_misses;
  let _, _, invalidations = Build_cache.counters cache in
  Alcotest.(check int) "two artifacts invalidated" 2 invalidations;
  (* and the recompilation is sound: the edit is visible in the output *)
  let cold = Driver.compile (st 11) in
  Alcotest.(check bool) "edited program identical to cold" true
    (String.equal (dis cold.Driver.program) (dis r3.Driver.program))

(* --- diagnostics replay: erroneous interfaces cache faithfully --- *)

let test_erroneous_interface_replays_diags () =
  let defs = [ ("Bad", "DEFINITION MODULE Bad;\nVAR v: NoSuchType;\nEND Bad.\n") ] in
  let src = modsrc ~imports:"IMPORT Bad;" ~decls:"" ~body:"" () in
  let cache = Build_cache.create () in
  let cold = Driver.compile ~cache (store ~defs ~name:"T" src) in
  let warm = Driver.compile ~cache (store ~defs ~name:"T" src) in
  Alcotest.(check bool) "cold rejects" false cold.Driver.ok;
  Alcotest.(check (list string)) "warm hit" [ "Bad" ] warm.Driver.cache_hits;
  Alcotest.(check (list string)) "identical diagnostics from the artifact"
    (diag_strings cold.Driver.diags) (diag_strings warm.Driver.diags)

(* --- determinism: same seed + warm cache => identical trace --- *)

(* Task ids vary across runs (global counter); the schedule is compared
   by the forest's task segments: (processor, class, interval, kind). *)
let normalize_trace (r : Driver.result) =
  List.filter_map
    (fun (s : Dtrace.span) ->
      if List.mem s.Dtrace.d_kind [ "compile"; "inner-task" ] then None
      else Some Dtrace.(s.d_proc, s.d_cls, s.d_t0, s.d_t1, s.d_kind))
    (Dtrace.assemble r.Driver.log).Dtrace.spans

let test_warm_runs_deterministic () =
  List.iter
    (fun strategy ->
      let config = config ~strategy ~procs:5 in
      let cache = Build_cache.create () in
      ignore (Driver.compile ~config ~cache (sample_store ()));
      let w1 = Driver.compile ~config ~capture:true ~cache (sample_store ()) in
      let w2 = Driver.compile ~config ~capture:true ~cache (sample_store ()) in
      let tag = Symtab.dky_name strategy in
      Alcotest.(check (float 0.0)) (tag ^ ": same end time") w1.Driver.sim.Des.end_time
        w2.Driver.sim.Des.end_time;
      Alcotest.(check bool) (tag ^ ": identical schedule") true
        (normalize_trace w1 <> [] && normalize_trace w1 = normalize_trace w2))
    Symtab.all_concurrent

(* --- Project: incremental whole-program builds --- *)

let project_store ?(lib_body = "hits := 0") ?(main_body = "a := Lib.Bump(); WriteInt(a)") () =
  store ~name:"Main"
    ~defs:
      [
        ("Lib", "DEFINITION MODULE Lib;\nVAR hits: INTEGER;\nPROCEDURE Bump(): INTEGER;\nEND Lib.\n");
      ]
    ~impls:
      [
        ( "Lib",
          Printf.sprintf
            "IMPLEMENTATION MODULE Lib;\nPROCEDURE Bump(): INTEGER;\nBEGIN INC(hits); RETURN hits END Bump;\nBEGIN %s\nEND Lib.\n"
            lib_body );
      ]
    (Printf.sprintf
       "IMPLEMENTATION MODULE Main;\nIMPORT Lib;\nVAR a: INTEGER;\nBEGIN\n  %s\nEND Main.\n"
       main_body)

let test_project_incremental () =
  let cache = Project.cache () in
  let r1 = Project.compile ~cache (project_store ()) in
  Alcotest.(check (list string)) "first build compiles everything" [ "Lib"; "Main" ]
    r1.Project.recompiled;
  let r2 = Project.compile ~cache (project_store ()) in
  Alcotest.(check (list string)) "unchanged build reuses everything" [ "Lib"; "Main" ]
    r2.Project.reused;
  Alcotest.(check (list string)) "nothing recompiled" [] r2.Project.recompiled;
  Alcotest.(check bool) "identical program" true
    (String.equal (dis r1.Project.program) (dis r2.Project.program));
  Alcotest.(check bool) "reuse is cheaper" true (r2.Project.total_units < r1.Project.total_units);
  (* edit only the main implementation: Lib's result is reusable *)
  let edited = project_store ~main_body:"a := Lib.Bump(); WriteInt(a + 1)" () in
  let r3 = Project.compile ~cache edited in
  Alcotest.(check (list string)) "only Main recompiles" [ "Main" ] r3.Project.recompiled;
  Alcotest.(check (list string)) "Lib reused" [ "Lib" ] r3.Project.reused;
  Alcotest.(check bool) "edited result matches a cold build" true
    (String.equal
       (dis (Project.compile edited).Project.program)
       (dis r3.Project.program))

let test_project_def_edit_recompiles_dependents () =
  let cache = Project.cache () in
  let with_def def =
    let base = project_store () in
    store ~name:"Main"
      ~defs:[ ("Lib", def) ]
      ~impls:
        [
          ( "Lib",
            "IMPLEMENTATION MODULE Lib;\nPROCEDURE Bump(): INTEGER;\nBEGIN INC(hits); RETURN hits END Bump;\nBEGIN hits := 0\nEND Lib.\n"
          );
        ]
      (Source_store.main_src base)
  in
  let def1 = "DEFINITION MODULE Lib;\nVAR hits: INTEGER;\nPROCEDURE Bump(): INTEGER;\nEND Lib.\n" in
  let def2 =
    "DEFINITION MODULE Lib;\nVAR hits: INTEGER;\nVAR spare: INTEGER;\nPROCEDURE Bump(): INTEGER;\nEND Lib.\n"
  in
  ignore (Project.compile ~cache (with_def def1));
  let r = Project.compile ~cache (with_def def1) in
  Alcotest.(check (list string)) "unchanged def: all reused" [ "Lib"; "Main" ] r.Project.reused;
  (* an interface edit invalidates every module that depends on it *)
  let r' = Project.compile ~cache (with_def def2) in
  Alcotest.(check (list string)) "def edit recompiles Lib and Main" [ "Lib"; "Main" ]
    r'.Project.recompiled;
  Alcotest.(check (list string)) "nothing reused" [] r'.Project.reused

let test_project_config_keys_separate () =
  (* cached module results embed simulated timings: a different
     configuration must never be served another configuration's result *)
  let cache = Project.cache () in
  let c1 = config ~strategy:Symtab.Skeptical ~procs:8 in
  let c2 = config ~strategy:Symtab.Pessimistic ~procs:3 in
  let r1 = Project.compile ~config:c1 ~cache (project_store ()) in
  let r2 = Project.compile ~config:c2 ~cache (project_store ()) in
  Alcotest.(check (list string)) "other config recompiles" [ "Lib"; "Main" ]
    r2.Project.recompiled;
  Alcotest.(check bool) "programs still identical" true
    (String.equal (dis r1.Project.program) (dis r2.Project.program));
  let r3 = Project.compile ~config:c1 ~cache (project_store ()) in
  Alcotest.(check (list string)) "original config still cached" [ "Lib"; "Main" ]
    r3.Project.reused

let test_project_warm_output_runs () =
  let cache = Project.cache () in
  ignore (Project.compile ~cache (project_store ()));
  let warm = Project.compile ~cache (project_store ()) in
  let run = Mcc_vm.Vm.run warm.Project.program in
  Alcotest.(check string) "warm program runs correctly" "1" run.Mcc_vm.Vm.output;
  Alcotest.(check bool) "finished" true (run.Mcc_vm.Vm.status = Mcc_vm.Vm.Finished)

(* --- on-disk persistence --- *)

let temp_cache_dir () =
  let f = Filename.temp_file "mcc-cache" "" in
  Sys.remove f;
  f (* Build_cache.save creates the directory *)

let test_disk_round_trip () =
  let dir = temp_cache_dir () in
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
        Sys.rmdir dir
      end)
    (fun () ->
      let cold = Driver.compile (sample_store ()) in
      let c1 = Build_cache.create ~dir () in
      ignore (Driver.compile ~cache:c1 (sample_store ()));
      Build_cache.save c1;
      (* a fresh process would load the artifacts from disk *)
      let c2 = Build_cache.create ~dir () in
      Alcotest.(check int) "one artifact loaded" 1 (List.length (Build_cache.interfaces c2));
      let warm = Driver.compile ~cache:c2 (sample_store ()) in
      Alcotest.(check (list string)) "loaded artifact hits" [ "Lib" ] warm.Driver.cache_hits;
      Alcotest.(check bool) "identical program from disk artifacts" true
        (String.equal (dis cold.Driver.program) (dis warm.Driver.program));
      Alcotest.(check (list string)) "identical diagnostics"
        (diag_strings cold.Driver.diags) (diag_strings warm.Driver.diags))

(* --- the size bound --- *)

(* A capped cache charges each artifact its wire size, so its bytes and
   evictions do not depend on how many types the process allocated
   before: uids past 32767 marshal in more bytes than small ones. *)
let test_capped_cache_size_stable () =
  let fill () =
    let c = Build_cache.create ~cap_bytes:3000 () in
    ignore (Driver.compile ~cache:c (Mcc_synth.Suite.program 3));
    (Build_cache.total_bytes c, Build_cache.eviction_count c)
  in
  let bytes, evictions = fill () in
  Mcc_sem.Types.bump_uid_floor 40_000;
  let bytes', evictions' = fill () in
  Alcotest.(check bool) "the bound evicts" true (evictions > 0);
  Alcotest.(check int) "same bytes after the uid floor moved" bytes bytes';
  Alcotest.(check int) "same evictions after the uid floor moved" evictions evictions'

(* --- the charge-free import scan agrees with the real importer --- *)

let prop_scan_matches_importer =
  QCheck.Test.make ~name:"fingerprint import scan == importer task scan" ~count:10
    QCheck.(int_bound 10_000)
    (fun seed ->
      let shape =
        {
          Mcc_synth.Gen.seed;
          name = "S";
          n_defs = 4;
          depth = 2;
          n_procs = 3;
          nested_per_proc = 0;
          stmts_lo = 2;
          stmts_hi = 6;
          module_vars = 2;
          def_size = 1;
          pad = 0;
          runnable = false;
        }
      in
      let st = Mcc_synth.Gen.generate shape in
      let cache = Build_cache.create () in
      let sources =
        Source_store.main_src st
        :: List.filter_map (Source_store.def_src st) (Source_store.def_names st)
      in
      List.for_all
        (fun src ->
          let real = ref [] in
          Mcc_core.Stream.run_importer
            ~rd:(Mcc_m2.Reader.of_lexer (Mcc_m2.Lexer.create ~file:"x" src))
            ~on_import:(fun m -> if not (List.mem m !real) then real := m :: !real);
          List.rev !real = Build_cache.imports_of cache src)
        sources)

let () =
  Alcotest.run "cache"
    [
      ( "equivalence",
        [
          Alcotest.test_case "warm == cold, all configurations" `Quick test_warm_equals_cold;
          Alcotest.test_case "warm is cheaper" `Quick test_warm_is_cheaper;
          Tutil.qtest prop_warm_equals_cold;
          Alcotest.test_case "erroneous interface replays diagnostics" `Quick
            test_erroneous_interface_replays_diags;
        ] );
      ( "invalidation",
        [
          Alcotest.test_case "edit invalidates exactly dependents" `Quick
            test_edit_invalidates_exactly_dependents;
        ] );
      ( "determinism",
        [ Alcotest.test_case "warm runs: identical traces" `Quick test_warm_runs_deterministic ] );
      ( "project",
        [
          Alcotest.test_case "incremental reuse" `Quick test_project_incremental;
          Alcotest.test_case "def edit recompiles dependents" `Quick
            test_project_def_edit_recompiles_dependents;
          Alcotest.test_case "config-keyed module results" `Quick test_project_config_keys_separate;
          Alcotest.test_case "warm program runs" `Quick test_project_warm_output_runs;
        ] );
      ( "persistence",
        [ Alcotest.test_case "disk round trip" `Quick test_disk_round_trip ] );
      ( "size bound",
        [ Alcotest.test_case "uid-independent bytes" `Quick test_capped_cache_size_stable ] );
      ("scanner", [ Tutil.qtest prop_scan_matches_importer ]);
    ]
