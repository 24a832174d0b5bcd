(* The per-compilation telemetry report.

   Combines the two telemetry views of one captured run — its span
   forest ([Dtrace], with the critical-path attribution walked over it)
   and the metrics snapshot — into the renderable/exportable profile behind
   [m2c profile]: a per-phase virtual-time table whose rows tile the
   end-to-end time (so every percentage is a true bound on what fixing
   that bottleneck could save, the paper's §4 methodology), the top-k
   bottleneck chain, and Prometheus/JSON exports.

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
  p_metrics : Metrics.snapshot;
}

let schema = "mcc-profile-v1"

let make ~module_name ~procs ~strategy ~seconds_per_unit ~metrics (forest : Dtrace.t) : t =
  let busy = Hashtbl.create 16 in
  let tasks = ref 0 in
  List.iter
    (fun (s : Dtrace.span) ->
      match s.Dtrace.d_kind with
      | "inner-task" ->
          incr tasks;
          if not (Hashtbl.mem busy s.Dtrace.d_cls) then Hashtbl.replace busy s.Dtrace.d_cls 0.0
      | "run" ->
          let v = Option.value ~default:0.0 (Hashtbl.find_opt busy s.Dtrace.d_cls) in
          Hashtbl.replace busy s.Dtrace.d_cls (v +. Dtrace.duration s)
      | _ -> ())
    forest.Dtrace.spans;
  {
    p_module = module_name;
    p_procs = procs;
    p_strategy = strategy;
    p_seconds_per_unit = seconds_per_unit;
    p_end = forest.Dtrace.end_time;
    p_tasks = !tasks;
    p_crit = Dtrace.critpath forest;
    p_phase_busy =
      Hashtbl.fold (fun cls units acc -> (Dtrace.phase_of_cls cls, cls, units) :: acc) busy []
      |> List.sort compare
      |> List.map (fun (_, cls, units) -> (cls, units));
    p_metrics = metrics;
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

let metric_json (s : Metrics.sample) =
  let base = [ ("name", Json.Str s.Metrics.s_name); ("labels", labels_obj s.Metrics.s_labels) ] in
  match s.Metrics.s_value with
  | Metrics.VCounter v -> Json.Obj (base @ [ ("type", Json.Str "counter"); ("value", Json.Float v) ])
  | Metrics.VGauge v -> Json.Obj (base @ [ ("type", Json.Str "gauge"); ("value", Json.Float v) ])
  | Metrics.VHistogram { h_bounds; h_counts; h_sum; h_count } ->
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

(* Prometheus export: the metrics snapshot plus synthetic series for
   the attribution table and the end-to-end time, so a scrape carries
   the whole profile. *)
let to_prometheus t : string =
  let synthetic =
    {
      Metrics.s_name = "mcc_profile_end_units";
      s_labels = [ ("module", t.p_module); ("strategy", t.p_strategy) ];
      s_value = Metrics.VGauge t.p_end;
    }
    :: List.map
         (fun (bucket, units) ->
           {
             Metrics.s_name = "mcc_critpath_units";
             s_labels = [ ("bucket", bucket); ("module", t.p_module) ];
             s_value = Metrics.VGauge units;
           })
         t.p_crit.Dtrace.c_buckets
    @ List.map
        (fun (cls, units) ->
          {
            Metrics.s_name = "mcc_phase_busy_units";
            s_labels = [ ("class", cls); ("module", t.p_module) ];
            s_value = Metrics.VGauge units;
          })
        t.p_phase_busy
  in
  let all =
    List.sort
      (fun (a : Metrics.sample) b -> compare (a.Metrics.s_name, a.s_labels) (b.Metrics.s_name, b.s_labels))
      (synthetic @ t.p_metrics)
  in
  Prom.render all
