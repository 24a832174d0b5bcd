(* The per-compilation telemetry report.

   Folds one captured compile — its event log, the span forest
   ([Dtrace]) assembled from it with the critical-path attribution
   walked over it, and the few totals the compile keeps outside the
   log — into the renderable/exportable profile behind [m2c profile]:
   a per-phase virtual-time table whose rows tile the end-to-end time
   (so every percentage is a true bound on what fixing that bottleneck
   could save, the paper's §4 methodology), the top-k bottleneck
   chain, and Prometheus/JSON exports.  The mcc_* counter series are
   counted here from that one record of what ran.

   This module knows nothing about the scheduler's cost model; callers
   pass [seconds_per_unit] (normally [Mcc_sched.Costs.seconds_per_unit])
   for the human-readable seconds column. *)

type t = {
  p_module : string;
  p_procs : int;
  p_strategy : string;
  p_seconds_per_unit : float;
  p_end : float; (* end-to-end virtual work units *)
  p_tasks : int; (* DES task spans in the forest *)
  p_crit : Dtrace.crit;
  p_phase_busy : (string * float) list; (* aggregate run units by class, all processors *)
  p_metrics : Prom.sample list; (* mcc_* series, sorted by (name, labels) *)
}

type counts = {
  tokens : int;
  task_classes : string list;
  symtab_probes : int;
  cache_hits : int;
  cache_misses : int;
  cache_evictions : int;
  corrupt_rebuilds : int;
}

let schema = "mcc-profile-v1"

(* Histogram buckets for run-span durations in virtual work units: from
   a single dispatch (~15 units) to a whole long procedure's code
   generation. *)
let duration_bounds = [| 100.0; 300.0; 1000.0; 3000.0; 10000.0; 30000.0; 100000.0; 300000.0 |]

(* Most spans open at once; a span ending when another starts does not
   overlap it. *)
let peak spans =
  List.concat_map (fun (s : Dtrace.span) -> [ (s.Dtrace.d_t0, 1); (s.Dtrace.d_t1, -1) ]) spans
  |> List.sort compare
  |> List.fold_left (fun (cur, best) (_, d) -> (cur + d, max best (cur + d))) (0, 0)
  |> snd

(* The scope kind of a DKY block's scope: interfaces are interned in the
   log, the builtin scope has a fixed name, procedure scopes are keyed
   "M.P" and the main module's scope is "M". *)
let scope_kind interned scope name =
  if Hashtbl.mem interned scope then "def"
  else if name = "<builtin>" then "builtin"
  else if String.contains name '.' then "proc"
  else "main"

let by_name =
  List.sort (fun (a : Prom.sample) b -> compare (a.s_name, a.s_labels) (b.s_name, b.s_labels))

(* A run-units histogram over [ds]. *)
let histogram ds =
  let n = Array.length duration_bounds in
  let h_counts = Array.make (n + 1) 0 in
  List.iter
    (fun d ->
      let i = Option.value ~default:n (Array.find_index (fun b -> d <= b) duration_bounds) in
      h_counts.(i) <- h_counts.(i) + 1)
    ds;
  Prom.VHistogram
    {
      h_bounds = duration_bounds;
      h_counts;
      h_sum = List.fold_left ( +. ) 0.0 ds;
      h_count = List.length ds;
    }

(* The mcc_* series come from the log, the forest folded from it and
   [counts].  Dispatches and the run-units histogram are run spans,
   busy processors the overlap of run and backoff spans (a processor
   held by a task that is not barrier-waiting, as the engine's bus
   model counts it), ready-queue depth the overlap of queue spans.  A
   barrier wait is an [Ev_block]/[Ev_wake] pair without a
   [Task_resume], and a watchdog-delivered wake is no signal's wake. *)
let make ~module_name ~procs ~strategy ~seconds_per_unit ~counts log : t =
  let forest = Dtrace.assemble log in
  let tbl = Hashtbl.create 64 in
  let count ?(labels = []) name n =
    let k = (name, labels) in
    Hashtbl.replace tbl k (n + Option.value ~default:0 (Hashtbl.find_opt tbl k))
  in
  let cls c = [ ("cls", c) ] in
  let interned = Hashtbl.create 8 in
  Array.iter
    (fun (r : Evlog.record) ->
      match r.Evlog.kind with
      | Evlog.Ev_signal _ -> count "mcc_sched_signal_total" 1
      | Evlog.Ev_block _ -> count ~labels:[ ("kind", "handled") ] "mcc_sched_block_total" 1
      | Evlog.Ev_wake _ -> count "mcc_sched_wake_total" 1
      | Evlog.Watchdog_fire _ -> count "mcc_sched_wake_total" (-1)
      | Evlog.Complete _ -> count "mcc_scope_complete_total" 1
      | Evlog.Scope_intern { scope; _ } -> Hashtbl.replace interned scope ()
      | Evlog.Dky_block { scope; scope_name; _ } ->
          let kind = scope_kind interned scope scope_name in
          count ~labels:[ ("scope_kind", kind) ] "mcc_dky_block_total" 1
      | Evlog.Task_retry _ -> count "mcc_fault_retry_total" 1
      | Evlog.Task_quarantine _ -> count "mcc_fault_quarantine_total" 1
      | Evlog.Fault_inject { fault = "stall"; _ } -> count "mcc_fault_stall_total" 1
      | _ -> ())
    log;
  let runs = Hashtbl.create 16 (* class -> run durations, latest first *) in
  let tasks = ref 0 and held = ref [] and queues = ref [] in
  List.iter
    (fun (s : Dtrace.span) ->
      let c = s.Dtrace.d_cls in
      match s.Dtrace.d_kind with
      | "inner-task" ->
          incr tasks;
          count ~labels:(cls c) "mcc_sup_submit_total" 1;
          if s.Dtrace.d_status <> "unfinished" then count ~labels:(cls c) "mcc_task_finish_total" 1;
          if not (Hashtbl.mem runs c) then Hashtbl.replace runs c []
      | "run" ->
          held := s :: !held;
          count ~labels:(cls c) "mcc_sched_dispatch_total" 1;
          Hashtbl.replace runs c (Dtrace.duration s :: Hashtbl.find runs c)
      | "backoff" -> held := s :: !held
      | "queue" -> queues := s :: !queues
      | "barrier-wait" ->
          count ~labels:[ ("kind", "barrier") ] "mcc_sched_block_total" 1;
          count ~labels:[ ("kind", "handled") ] "mcc_sched_block_total" (-1);
          (* a watchdog-rescued barrier wake was already counted out *)
          if s.Dtrace.d_status <> "recovered" then count "mcc_sched_wake_total" (-1)
      | _ -> ())
    forest.Dtrace.spans;
  List.iter (fun c -> count ~labels:(cls c) "mcc_tasks_total" 1) counts.task_classes;
  count "mcc_tokens_total" counts.tokens;
  count "mcc_symtab_probe_total" counts.symtab_probes;
  count "mcc_cache_probe_total" (counts.cache_hits + counts.cache_misses);
  count "mcc_cache_hit_total" counts.cache_hits;
  count "mcc_cache_miss_total" counts.cache_misses;
  count "mcc_cache_store_total" counts.cache_misses;
  count "mcc_cache_evict_total" counts.cache_evictions;
  count "mcc_cache_corrupt_total" counts.corrupt_rebuilds;
  let sample s_name s_labels s_value = { Prom.s_name; s_labels; s_value } in
  let runs =
    Hashtbl.fold (fun c ds acc -> (Dtrace.phase_of_cls c, c, List.rev ds) :: acc) runs []
    |> List.sort compare
  in
  let series =
    Hashtbl.fold
      (fun (name, labels) n acc ->
        if n > 0 then sample name labels (Prom.VCounter (float_of_int n)) :: acc else acc)
      tbl []
    @ List.filter_map
        (fun (name, spans) ->
          match peak spans with
          | 0 -> None
          | n -> Some (sample name [] (Prom.VGauge (float_of_int n))))
        [ ("mcc_sched_busy_procs_peak", !held); ("mcc_sup_ready_peak", !queues) ]
    @ List.filter_map
        (fun (_, c, ds) ->
          if ds = [] then None else Some (sample "mcc_task_run_units" (cls c) (histogram ds)))
        runs
  in
  {
    p_module = module_name;
    p_procs = procs;
    p_strategy = strategy;
    p_seconds_per_unit = seconds_per_unit;
    p_end = forest.Dtrace.end_time;
    p_tasks = !tasks;
    p_crit = Dtrace.critpath forest;
    p_phase_busy = List.map (fun (_, c, ds) -> (c, List.fold_left ( +. ) 0.0 ds)) runs;
    p_metrics = by_name series;
  }

(* The attribution table tiles [0, end]; assert the invariant within a
   rounding tolerance before trusting the shares. *)
let tiles_end t =
  Float.abs (Dtrace.crit_total t.p_crit -. t.p_end) <= 1e-3 *. Float.max 1.0 t.p_end

(* The [k] longest hops, longest first (stable on ties by start time). *)
let longest t k =
  List.stable_sort
    (fun (a : Dtrace.cseg) (b : Dtrace.cseg) ->
      compare (b.c_t1 -. b.c_t0, a.c_t0) (a.c_t1 -. a.c_t0, b.c_t0))
    t.p_crit.Dtrace.c_segs
  |> List.filteri (fun i _ -> i < k)

let render ?(top = 5) t : string =
  let buf = Buffer.create 2048 in
  let say fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  say "profile: %s — %d processors, %s strategy" t.p_module t.p_procs t.p_strategy;
  say "end-to-end: %.0f virtual units (%.3f virtual s), %d tasks" t.p_end
    (t.p_end *. t.p_seconds_per_unit)
    t.p_tasks;
  say "";
  say "critical-path attribution (tiles the end-to-end virtual time):";
  say "  %-20s %14s %8s" "bucket" "units" "share";
  List.iter
    (fun (bucket, units) ->
      say "  %-20s %14.0f %7.1f%%" bucket units (100.0 *. units /. Float.max 1e-9 t.p_end))
    t.p_crit.Dtrace.c_buckets;
  let total = Dtrace.crit_total t.p_crit in
  say "  %-20s %14.0f %7.1f%%   %s" "total" total
    (100.0 *. total /. Float.max 1e-9 t.p_end)
    (if tiles_end t then "(= end-to-end)" else "(MISMATCH vs end-to-end)");
  say "";
  say "aggregate busy time by class (sum over all processors):";
  List.iter
    (fun (cls, units) -> say "  %-20s %14.0f" cls units)
    t.p_phase_busy;
  say "";
  let hops = longest t top in
  say "critical path: %d longest of %d hops:" (List.length hops)
    (List.length t.p_crit.Dtrace.c_segs);
  List.iter
    (fun (h : Dtrace.cseg) ->
      say "  [%10.0f .. %10.0f]  %-18s %-28s %10.0f units" h.c_t0 h.c_t1 h.c_bucket h.c_name
        (h.c_t1 -. h.c_t0))
    hops;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* JSON export (schema "mcc-profile-v1")

   { "schema": "mcc-profile-v1",
     "module": str, "procs": int, "strategy": str,
     "end_units": num, "end_seconds": num, "tasks": int,
     "attribution": [ { "bucket": str, "units": num, "share": num } ],
     "critical_path": [ { "t0": num, "t1": num, "task": int,
                          "name": str, "bucket": str } ],
     "phase_busy": [ { "class": str, "units": num } ],
     "metrics": [ { "name": str, "labels": obj, "type": str, ... } ] } *)

let labels_obj labels = Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) labels)

let metric_json (s : Prom.sample) =
  let base = [ ("name", Json.Str s.s_name); ("labels", labels_obj s.s_labels) ] in
  match s.s_value with
  | Prom.VCounter v -> Json.Obj (base @ [ ("type", Json.Str "counter"); ("value", Json.Float v) ])
  | Prom.VGauge v -> Json.Obj (base @ [ ("type", Json.Str "gauge"); ("value", Json.Float v) ])
  | Prom.VHistogram { h_bounds; h_counts; h_sum; h_count } ->
      Json.Obj
        (base
        @ [
            ("type", Json.Str "histogram");
            ("bounds", Json.Arr (Array.to_list (Array.map (fun b -> Json.Float b) h_bounds)));
            ("counts", Json.Arr (Array.to_list (Array.map (fun c -> Json.Int c) h_counts)));
            ("sum", Json.Float h_sum);
            ("count", Json.Int h_count);
          ])

let to_json_value t : Json.t =
  Json.Obj
    [
      ("schema", Json.Str schema);
      ("module", Json.Str t.p_module);
      ("procs", Json.Int t.p_procs);
      ("strategy", Json.Str t.p_strategy);
      ("end_units", Json.Float t.p_end);
      ("end_seconds", Json.Float (t.p_end *. t.p_seconds_per_unit));
      ("tasks", Json.Int t.p_tasks);
      ( "attribution",
        Json.Arr
          (List.map
             (fun (bucket, units) ->
               Json.Obj
                 [
                   ("bucket", Json.Str bucket);
                   ("units", Json.Float units);
                   ("share", Json.Float (units /. Float.max 1e-9 t.p_end));
                 ])
             t.p_crit.Dtrace.c_buckets) );
      ( "critical_path",
        Json.Arr
          (List.map
             (fun (h : Dtrace.cseg) ->
               Json.Obj
                 [
                   ("t0", Json.Float h.c_t0);
                   ("t1", Json.Float h.c_t1);
                   ("task", Json.Int h.c_span);
                   ("name", Json.Str h.c_name);
                   ("bucket", Json.Str h.c_bucket);
                 ])
             t.p_crit.Dtrace.c_segs) );
      ( "phase_busy",
        Json.Arr
          (List.map
             (fun (cls, units) ->
               Json.Obj [ ("class", Json.Str cls); ("units", Json.Float units) ])
             t.p_phase_busy) );
      ("metrics", Json.Arr (List.map metric_json t.p_metrics));
    ]

let to_json t = Json.to_string (to_json_value t) ^ "\n"

(* Prometheus export: the mcc_* series plus series for the attribution
   table, the per-class busy time and the end-to-end time, so a scrape
   carries the whole profile. *)
let to_prometheus t : string =
  let gauge s_name s_labels v = { Prom.s_name; s_labels; s_value = Prom.VGauge v } in
  let synthetic =
    gauge "mcc_profile_end_units" [ ("module", t.p_module); ("strategy", t.p_strategy) ] t.p_end
    :: List.map
         (fun (bucket, units) ->
           gauge "mcc_critpath_units" [ ("bucket", bucket); ("module", t.p_module) ] units)
         t.p_crit.Dtrace.c_buckets
    @ List.map
        (fun (cls, units) ->
          gauge "mcc_phase_busy_units" [ ("class", cls); ("module", t.p_module) ] units)
        t.p_phase_busy
  in
  Prom.render (by_name (synthetic @ t.p_metrics))
