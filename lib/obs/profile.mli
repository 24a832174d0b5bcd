(** The per-compilation telemetry report.

    Combines the two telemetry views of one captured run — its
    {!Dtrace} span forest (with the critical-path attribution walked
    over it) and the metrics snapshot — into the renderable/exportable profile behind
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
  p_end : float;  (** end-to-end virtual work units *)
  p_tasks : int;  (** DES task spans in the forest *)
  p_crit : Dtrace.crit;
  p_phase_busy : (string * float) list;
      (** aggregate run units by class, all processors (WatchTool's
          per-class run time) *)
  p_metrics : Metrics.snapshot;
}

(** The JSON export's schema tag, ["mcc-profile-v1"]. *)
val schema : string

(** Profile the forest {!Dtrace.assemble} folds from a captured
    compile's log; its end time is the end-to-end time. *)
val make :
  module_name:string ->
  procs:int ->
  strategy:string ->
  seconds_per_unit:float ->
  metrics:Metrics.snapshot ->
  Dtrace.t ->
  t

(** Whether the attribution table tiles [0, end] within a rounding
    tolerance — assert this before trusting the shares. *)
val tiles_end : t -> bool

(** The human-readable table: attribution, per-class busy time, and the
    [top] (default 5) longest critical-path hops. *)
val render : ?top:int -> t -> string

val to_json_value : t -> Json.t

(** [to_string (to_json_value t)] with a trailing newline. *)
val to_json : t -> string

(** The metrics snapshot plus synthetic series for the attribution
    table and the end-to-end time, so a scrape carries the whole
    profile. *)
val to_prometheus : t -> string
