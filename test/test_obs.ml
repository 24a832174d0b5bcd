(* Tests for the telemetry subsystem (lib/obs): the event-log
   hardening (monotonic virtual time, length/iter), the compile span
   forest and its critical-path attribution on canned logs, the
   profile report and its exporters (Prometheus text, JSON),
   the mcc_* series folded from a captured compile, the validators'
   negative cases, the Chrome export and the WatchTool renderer on
   canned forests, the compile forest's invariants over random suite
   compiles, and end-to-end determinism and zero-cost guarantees
   through the driver. *)

open Mcc_obs
module Sched = Mcc_sched
module Evlog = Mcc_obs.Evlog
module Driver = Mcc_core.Driver
module Trace_json = Mcc_analysis.Trace_json

let small_store () = Mcc_synth.Suite.program 2

(* --- event-log hardening --- *)

let test_evlog_monotonic_assert () =
  let raised = ref false in
  let (), _log =
    Evlog.capture (fun () ->
        Evlog.set_time 5.0;
        Evlog.emit (Evlog.Task_start { task = 1; proc = 0 });
        Evlog.set_time 2.0;
        try Evlog.emit (Evlog.Task_finish { task = 1 })
        with Invalid_argument _ -> raised := true)
  in
  Alcotest.(check bool) "time regression rejected" true !raised

let test_evlog_length_iter () =
  let (), log =
    Evlog.capture (fun () ->
        Alcotest.(check int) "fresh capture is empty" 0 (Evlog.length ());
        Evlog.set_time 1.0;
        Evlog.emit (Evlog.Task_start { task = 7; proc = 0 });
        Evlog.set_time 4.0;
        Evlog.emit (Evlog.Task_finish { task = 7 });
        Alcotest.(check int) "length counts appends" 2 (Evlog.length ());
        let times = ref [] in
        Evlog.iter (fun r -> times := r.Evlog.time :: !times);
        Alcotest.(check (list (float 1e-9))) "iter in append order" [ 1.0; 4.0 ] (List.rev !times))
  in
  Alcotest.(check int) "captured both records" 2 (Array.length log)

(* --- the compile forest and its critical path on a canned log --- *)

(* A producer/consumer schedule: the consumer DKY-blocks on the
   producer's scope from t=3 until the signal at t=6, is dispatched
   again at once and runs to t=10.  Written directly as records,
   independent of the engine. *)
let canned_log () =
  let mk seq time task kind = { Evlog.seq; time; task; kind } in
  [|
    mk 0 0.0 (-1) (Evlog.Task_spawn { task = 1; name = "producer"; cls = "defparse"; gate = -1 });
    mk 1 0.0 (-1) (Evlog.Task_spawn { task = 2; name = "consumer"; cls = "shortgen"; gate = -1 });
    mk 2 1.0 (-1) (Evlog.Task_start { task = 1; proc = 0 });
    mk 3 2.0 (-1) (Evlog.Task_start { task = 2; proc = 1 });
    mk 4 3.0 2 (Evlog.Dky_block { scope = 5; scope_name = "M.def"; sym = "x"; ev = 9 });
    mk 5 3.0 2 (Evlog.Ev_block { ev = 9; name = "M.def.complete"; producer = 1 });
    mk 6 6.0 1 (Evlog.Complete { scope = 5; scope_name = "M.def" });
    mk 7 6.0 1 (Evlog.Ev_signal { ev = 9; name = "M.def.complete" });
    mk 8 6.0 1 (Evlog.Ev_wake { ev = 9; task = 2 });
    mk 9 6.0 (-1) (Evlog.Task_resume { task = 2; proc = 1 });
    mk 10 6.0 2 (Evlog.Dky_unblock { scope = 5; scope_name = "M.def"; sym = "x"; ev = 9 });
    mk 11 6.0 (-1) (Evlog.Task_finish { task = 1 });
    mk 12 10.0 (-1) (Evlog.Task_finish { task = 2 });
  |]

let kids_of (forest : Dtrace.t) (task : Dtrace.span) =
  List.filter (fun (s : Dtrace.span) -> s.Dtrace.d_parent = task.Dtrace.d_span) forest.Dtrace.spans

let total forest task kind =
  List.fold_left
    (fun acc (s : Dtrace.span) -> if s.Dtrace.d_kind = kind then acc +. Dtrace.duration s else acc)
    0.0 (kids_of forest task)

let tasks_of (forest : Dtrace.t) =
  List.filter (fun (s : Dtrace.span) -> s.Dtrace.d_kind = "inner-task") forest.Dtrace.spans

let canned_profile () =
  Profile.make ~module_name:"M" ~procs:2 ~strategy:"skeptical" ~seconds_per_unit:1.0
    ~counts:
      {
        Profile.tokens = 0;
        task_classes = [];
        symtab_probes = 0;
        cache_hits = 0;
        cache_misses = 0;
        cache_evictions = 0;
        corrupt_rebuilds = 0;
      }
    (canned_log ())

(* A counter series' value, 0 when the series is absent. *)
let counter (p : Profile.t) ?(labels = []) name =
  match
    List.find_opt
      (fun (s : Prom.sample) -> s.s_name = name && s.s_labels = labels)
      p.Profile.p_metrics
  with
  | Some { Prom.s_value = Prom.VCounter v; _ } -> int_of_float v
  | _ -> 0

let test_span_canned () =
  let forest = Dtrace.assemble (canned_log ()) in
  (match Dtrace.validate forest with
  | Ok () -> ()
  | Error e -> Alcotest.failf "canned forest invalid: %s" e);
  Alcotest.(check int) "one root" 1 (List.length (Dtrace.roots forest));
  match tasks_of forest with
  | [ p; c ] ->
      Alcotest.(check string) "producer name" "producer" p.Dtrace.d_name;
      Alcotest.(check (float 1e-9)) "producer queued 0..1" 1.0 (total forest p "queue");
      Alcotest.(check (float 1e-9)) "producer ran 1..6" 5.0 (total forest p "run");
      Alcotest.(check (float 1e-9)) "consumer queued 0..2" 2.0 (total forest c "queue");
      Alcotest.(check (float 1e-9)) "consumer DKY-blocked 3..6" 3.0 (total forest c "dky-wait");
      Alcotest.(check (float 1e-9)) "consumer ran 2..3 and 6..10" 5.0 (total forest c "run");
      Alcotest.(check (float 1e-9)) "consumer finish time" 10.0 c.Dtrace.d_t1;
      Alcotest.(check (list int)) "consumer runs on proc 1" [ 1; 1 ]
        (List.filter_map
           (fun (s : Dtrace.span) -> if s.Dtrace.d_kind = "run" then Some s.Dtrace.d_proc else None)
           (kids_of forest c));
      Alcotest.(check (option (pair int (float 1e-9)))) "the wait's cause is the producer's signal"
        (Some (1, 6.0))
        (List.find_map
           (fun (s : Dtrace.span) -> if s.Dtrace.d_kind = "dky-wait" then s.Dtrace.d_cause else None)
           (kids_of forest c));
      let p = canned_profile () in
      let busy = p.Profile.p_phase_busy in
      Alcotest.(check (float 1e-9)) "busy by class: defparse" 5.0 (List.assoc "defparse" busy);
      Alcotest.(check (float 1e-9)) "busy by class: shortgen" 5.0 (List.assoc "shortgen" busy);
      List.iter
        (fun (name, labels, want) -> Alcotest.(check int) name want (counter p ~labels name))
        [
          ("mcc_sched_signal_total", [], 1);
          ("mcc_sched_block_total", [ ("kind", "handled") ], 1);
          ("mcc_sched_wake_total", [], 1);
          ("mcc_scope_complete_total", [], 1);
          ("mcc_sched_dispatch_total", [ ("cls", "shortgen") ], 2);
          ("mcc_task_finish_total", [ ("cls", "defparse") ], 1);
        ]
  | spans -> Alcotest.failf "expected 2 task spans, got %d" (List.length spans)

let check_tiling (cp : Dtrace.crit) =
  Alcotest.(check (float 1e-6)) "hops tile the end-to-end time" cp.Dtrace.c_end
    (Dtrace.crit_total cp);
  Alcotest.(check bool) "no unattributed residue" false
    (List.mem_assoc "unattributed" cp.Dtrace.c_buckets)

let test_critpath_canned () =
  let cp = Dtrace.critpath (Dtrace.assemble (canned_log ())) in
  Alcotest.(check (float 1e-9)) "end is the last finish" 10.0 cp.Dtrace.c_end;
  check_tiling cp;
  (* the consumer's final run and its DKY block must both appear *)
  Alcotest.(check (float 1e-9)) "codegen on the path" 5.0
    (List.assoc "codegen" cp.Dtrace.c_buckets);
  Alcotest.(check bool) "DKY block on the path" true
    (List.mem_assoc "dky-block" cp.Dtrace.c_buckets
    || List.mem_assoc "completion-wait" cp.Dtrace.c_buckets)

let test_critpath_driver_log () =
  let c = Driver.compile ~config:Driver.default_config ~capture:true (small_store ()) in
  let end_time = c.Driver.sim.Sched.Des_engine.end_time in
  let cp = Dtrace.critpath (Dtrace.assemble c.Driver.log) in
  Alcotest.(check (float 1e-6)) "path ends at the engine's end time" end_time cp.Dtrace.c_end;
  check_tiling cp;
  Alcotest.(check bool) "non-empty bottleneck chain" true (cp.Dtrace.c_segs <> [])

(* --- the profile report and its exporters --- *)

let profile_of ?(config = Driver.default_config) store =
  Driver.profile ~config store (Driver.compile ~config ~capture:true store)

let test_profile_render () =
  let p = profile_of (small_store ()) in
  Alcotest.(check bool) "phase totals sum to end-to-end time" true (Profile.tiles_end p);
  let s = Profile.render p in
  Alcotest.(check bool) "table confirms the tiling" true (Tutil.contains ~sub:"(= end-to-end)" s);
  Alcotest.(check bool) "attribution section" true
    (Tutil.contains ~sub:"critical-path attribution" s);
  Alcotest.(check bool) "busy section" true (Tutil.contains ~sub:"busy time by class" s)

let test_profile_exports_validate () =
  let p = profile_of (small_store ()) in
  (match Json.validate (Profile.to_json p) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "profile JSON invalid: %s" e);
  Alcotest.(check bool) "JSON declares its schema" true
    (Tutil.contains ~sub:"\"schema\":\"mcc-profile-v1\"" (Profile.to_json p));
  match Prom.validate (Profile.to_prometheus p) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "profile Prometheus text invalid: %s" e

(* Task ids are allocated from a process-global counter, so raw ids in
   the hop list shift between two compiles *within one process*; the
   real guarantee — two processes, same config, byte-identical exports
   — is checked at the CLI level by CI.  Here we assert everything
   id-free is byte-identical across back-to-back compiles. *)
let test_profile_deterministic () =
  let p1 = profile_of (small_store ()) and p2 = profile_of (small_store ()) in
  Alcotest.(check string) "Prometheus export byte-identical" (Profile.to_prometheus p1)
    (Profile.to_prometheus p2);
  Alcotest.(check (float 1e-9)) "same end-to-end time" p1.Profile.p_end p2.Profile.p_end;
  Alcotest.(check bool) "same attribution buckets" true
    (p1.Profile.p_crit.Dtrace.c_buckets = p2.Profile.p_crit.Dtrace.c_buckets)

let gauge (p : Profile.t) name =
  match List.find_opt (fun (s : Prom.sample) -> s.s_name = name) p.Profile.p_metrics with
  | Some { Prom.s_value = Prom.VGauge v; _ } -> int_of_float v
  | _ -> 0

(* A crash at a resume point quarantines the task just as a crash with
   retries exhausted does; both are counted. *)
let test_profile_quarantine () =
  let config =
    {
      Driver.default_config with
      Driver.faults = Sched.Fault.parse_list "task-crash@2,stall@3,dropped-wake@1";
      fault_seed = 7;
    }
  in
  let store = Mcc_synth.Suite.program 0 in
  let r = Driver.compile ~config ~capture:true store in
  let p = Driver.profile ~config store r in
  let quarantined = List.length r.Driver.robustness.Driver.r_quarantined in
  Alcotest.(check int) "the plan quarantines one task" 1 quarantined;
  Alcotest.(check int) "mcc_fault_quarantine_total" quarantined
    (counter p "mcc_fault_quarantine_total")

(* The Sieve example's series, pinned at the values the scheduler and
   symbol-table counts have always had. *)
let test_profile_sieve_counts () =
  let store = Mcc_core.Source_store.of_directory ~dir:"../examples" ~main_name:"Sieve" in
  let p = profile_of ~config:{ Driver.default_config with Driver.procs = 8 } store in
  List.iter
    (fun (name, labels, want) -> Alcotest.(check int) name want (counter p ~labels name))
    [
      ("mcc_sched_signal_total", [], 28);
      ("mcc_sched_block_total", [ ("kind", "handled") ], 3);
      ("mcc_sched_block_total", [ ("kind", "barrier") ], 0);
      ("mcc_sched_wake_total", [], 3);
      ("mcc_scope_complete_total", [], 5);
      ("mcc_symtab_probe_total", [], 81);
      ("mcc_tokens_total", [], 304);
    ];
  Alcotest.(check int) "mcc_sched_busy_procs_peak" 5 (gauge p "mcc_sched_busy_procs_peak");
  List.iter
    (fun (cls, n) ->
      let labels = [ ("cls", cls) ] in
      Alcotest.(check int) ("submit " ^ cls) n (counter p ~labels "mcc_sup_submit_total");
      Alcotest.(check int) ("finish " ^ cls) n (counter p ~labels "mcc_task_finish_total");
      (* the bootstrap task is the engine's, not the compile's *)
      Alcotest.(check int) ("tasks " ^ cls) (if cls = "aux" then 0 else n)
        (counter p ~labels "mcc_tasks_total"))
    [
      ("aux", 1);
      ("defparse", 1);
      ("importer", 2);
      ("lexor", 2);
      ("merge", 1);
      ("modparse", 1);
      ("procparse", 3);
      ("shortgen", 4);
      ("splitter", 1);
    ]

let test_telemetry_zero_cost () =
  let off = Driver.compile ~config:Driver.default_config (small_store ()) in
  let on = Driver.compile ~config:Driver.default_config ~capture:true (small_store ()) in
  Alcotest.(check int) "capture off leaves no log" 0 (Array.length off.Driver.log);
  Alcotest.(check bool) "capture on records the run" true (Array.length on.Driver.log > 0);
  Alcotest.(check (float 0.0)) "capture leaves the virtual end time unchanged"
    off.Driver.sim.Sched.Des_engine.end_time on.Driver.sim.Sched.Des_engine.end_time

(* --- validators: negative cases --- *)

let test_json_validate () =
  List.iter
    (fun s ->
      match Json.validate s with
      | Ok () -> ()
      | Error e -> Alcotest.failf "rejected valid JSON %S: %s" s e)
    [ "{}"; "[1,2.5,-3]"; "{\"a\":[true,false,null],\"b\":\"x\\n\"}"; "\"\"" ];
  List.iter
    (fun s ->
      match Json.validate s with
      | Ok () -> Alcotest.failf "accepted invalid JSON %S" s
      | Error _ -> ())
    [ "{"; "{\"a\":1,}"; "[1 2]"; "{\"a\"}"; "nul"; "1 2" ]

let test_prom_validate () =
  let good =
    "# HELP x_total a counter\n# TYPE x_total counter\nx_total 1\n\
     y{cls=\"lexor\",q=\"a\\\"b\"} 2.5\n"
  in
  (match Prom.validate good with
  | Ok () -> ()
  | Error e -> Alcotest.failf "rejected valid exposition: %s" e);
  List.iter
    (fun s ->
      match Prom.validate s with
      | Ok () -> Alcotest.failf "accepted invalid exposition %S" s
      | Error _ -> ())
    [ "9bad 1\n"; "x{cls=lexor} 1\n"; "x 1 2 3\n"; "x{cls=\"a\" 1\n"; "x notanumber\n" ]

(* --- Chrome export and WatchTool on canned forests --- *)

let test_trace_json_export () =
  let s = Trace_json.export_spans ~sec_per_unit:1e-6 (Dtrace.assemble (canned_log ())) in
  (match Json.validate s with
  | Ok () -> ()
  | Error e -> Alcotest.failf "trace export is not valid JSON: %s" e);
  Alcotest.(check bool) "task names survive" true (Tutil.contains ~sub:"producer" s);
  Alcotest.(check bool) "second task named too" true (Tutil.contains ~sub:"consumer" s);
  Alcotest.(check bool) "one lane per processor" true
    (Tutil.contains ~sub:"\"name\":\"proc 0\"" s && Tutil.contains ~sub:"\"name\":\"proc 1\"" s)

(* a crashed start: injected at t=12, retried, dispatched after the
   backoff *)
let test_trace_json_instants () =
  let mk seq time kind = { Evlog.seq; time; task = -1; kind } in
  let log =
    [|
      mk 0 0.0 (Evlog.Task_spawn { task = 2; name = "Gen Main.P"; cls = "shortgen"; gate = -1 });
      mk 1 12.0 (Evlog.Fault_inject { fault = "crash-at-start"; victim = "Gen Main.P" });
      mk 2 12.0 (Evlog.Task_retry { task = 2; attempt = 1 });
      mk 3 812.0 (Evlog.Task_start { task = 2; proc = 0 });
      mk 4 900.0 (Evlog.Task_finish { task = 2 });
    |]
  in
  let forest = Dtrace.assemble log in
  (match Dtrace.validate forest with
  | Ok () -> ()
  | Error e -> Alcotest.failf "retried task's forest invalid: %s" e);
  let s = Trace_json.export_spans ~sec_per_unit:1e-6 forest in
  (match Json.validate s with
  | Ok () -> ()
  | Error e -> Alcotest.failf "trace export with instants is not valid JSON: %s" e);
  Alcotest.(check bool) "fault instant present" true (Tutil.contains ~sub:"inject:crash-at-start" s);
  Alcotest.(check bool) "retry instant present" true
    (Tutil.contains ~sub:"Gen Main.P (attempt 1)" s)

let test_watchtool_canned () =
  let forest = Dtrace.assemble (canned_log ()) in
  let s = Mcc_stats.Watchtool.render forest ~procs:2 in
  let rows =
    List.filter
      (fun l -> String.length l > 2 && l.[0] = 'P')
      (String.split_on_char '\n' s)
  in
  Alcotest.(check int) "one row per processor" 2 (List.length rows);
  Alcotest.(check bool) "defparse painted" true (Tutil.contains ~sub:"d" (List.nth rows 0));
  Alcotest.(check bool) "short-gen painted" true (Tutil.contains ~sub:"g" (List.nth rows 1));
  let summary = Mcc_stats.Watchtool.summary forest ~procs:2 in
  Alcotest.(check bool) "summary has utilization" true (Tutil.contains ~sub:"utilization" summary)

(* --- the compile forest over random suite compiles --- *)

(* Capture is free (same end time, same program), the forest validates
   (every DES task exactly tiled by its segments), and each processor
   lane holds one thing at a time and never more run time than the
   whole compile took. *)
let prop_compile_forest =
  QCheck.Test.make ~name:"compile forest: free, valid, one task per lane" ~count:30
    QCheck.(
      triple
        (int_bound (Mcc_synth.Suite.n_programs - 1))
        (oneofl [ 1; 2; 8 ])
        (oneofl Mcc_sem.Symtab.all_concurrent))
    (fun (rank, procs, strategy) ->
      let store = Mcc_synth.Suite.program rank in
      let config = { Driver.default_config with Driver.procs; strategy } in
      let plain = Driver.compile ~config store in
      let c = Driver.compile ~config ~capture:true store in
      let end_time = c.Driver.sim.Sched.Des_engine.end_time in
      let listing (r : Driver.result) = Mcc_codegen.Cunit.disassemble r.Driver.program in
      if plain.Driver.sim.Sched.Des_engine.end_time <> end_time then
        QCheck.Test.fail_reportf "capture moved the end time";
      if listing plain <> listing c then QCheck.Test.fail_reportf "capture changed the program";
      let forest = Dtrace.assemble c.Driver.log in
      (match Dtrace.validate forest with
      | Ok () -> ()
      | Error e -> QCheck.Test.fail_reportf "invalid forest: %s" e);
      let lanes = Array.make procs [] in
      List.iter
        (fun (s : Dtrace.span) ->
          if s.Dtrace.d_proc >= procs then QCheck.Test.fail_reportf "span on proc %d" s.Dtrace.d_proc
          else if s.Dtrace.d_proc >= 0 then lanes.(s.Dtrace.d_proc) <- s :: lanes.(s.Dtrace.d_proc))
        forest.Dtrace.spans;
      Array.iteri
        (fun p spans ->
          let spans =
            List.sort (fun (a : Dtrace.span) b -> compare a.Dtrace.d_t0 b.Dtrace.d_t0) spans
          in
          ignore
            (List.fold_left
               (fun prev_end (s : Dtrace.span) ->
                 if s.Dtrace.d_t0 < prev_end then
                   QCheck.Test.fail_reportf "proc %d: %s at %.3f overlaps the span ending at %.3f" p
                     s.Dtrace.d_name s.Dtrace.d_t0 prev_end;
                 s.Dtrace.d_t1)
               0.0 spans);
          let run =
            List.fold_left
              (fun acc (s : Dtrace.span) ->
                if s.Dtrace.d_kind = "run" then acc +. Dtrace.duration s else acc)
              0.0 spans
          in
          if run > end_time then
            QCheck.Test.fail_reportf "proc %d runs %.3f units in a %.3f-unit compile" p run end_time)
        lanes;
      true)

let () =
  Alcotest.run "obs"
    [
      ( "evlog",
        [
          Alcotest.test_case "monotonic time asserted" `Quick test_evlog_monotonic_assert;
          Alcotest.test_case "length and iter" `Quick test_evlog_length_iter;
        ] );
      ( "span",
        [ Alcotest.test_case "canned producer/consumer" `Quick test_span_canned ] );
      ( "critpath",
        [
          Alcotest.test_case "canned log tiles" `Quick test_critpath_canned;
          Alcotest.test_case "driver log tiles" `Quick test_critpath_driver_log;
        ] );
      ( "profile",
        [
          Alcotest.test_case "render" `Quick test_profile_render;
          Alcotest.test_case "exports validate" `Quick test_profile_exports_validate;
          Alcotest.test_case "deterministic" `Quick test_profile_deterministic;
          Alcotest.test_case "zero cost when off" `Quick test_telemetry_zero_cost;
          Alcotest.test_case "quarantines counted" `Quick test_profile_quarantine;
          Alcotest.test_case "sieve counts" `Quick test_profile_sieve_counts;
        ] );
      ( "validators",
        [
          Alcotest.test_case "json" `Quick test_json_validate;
          Alcotest.test_case "prometheus" `Quick test_prom_validate;
        ] );
      ( "trace-json",
        [
          Alcotest.test_case "export" `Quick test_trace_json_export;
          Alcotest.test_case "fault instants" `Quick test_trace_json_instants;
        ] );
      ( "watchtool",
        [ Alcotest.test_case "canned trace" `Quick test_watchtool_canned ] );
      ("forest", [ Tutil.qtest prop_compile_forest ]);
    ]
