(** The per-compilation telemetry report.

    Folds one captured compile — its event log, the {!Dtrace} span
    forest assembled from it (with the critical-path attribution walked
    over it), and the few totals the compile keeps outside the log —
    into the renderable/exportable profile behind [m2c profile]: a
    per-phase virtual-time table whose rows tile the end-to-end time
    (so every percentage is a true bound on what fixing that bottleneck
    could save, the paper's §4 methodology), the top-k bottleneck
    chain, and Prometheus/JSON exports, whose [mcc_*] series are all
    counted here from that one record of what ran.

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
  p_metrics : Prom.sample list;
      (** the [mcc_*] series, sorted by (name, labels); a counter
          appears once it is nonzero *)
}

(** What a compile counts outside its event log. *)
type counts = {
  tokens : int;  (** tokens lexed across all files *)
  task_classes : string list;  (** class of every task the compile instantiated *)
  symtab_probes : int;
  cache_hits : int;
  cache_misses : int;
  cache_evictions : int;
  corrupt_rebuilds : int;  (** cached artifacts that failed verification *)
}

(** The JSON export's schema tag, ["mcc-profile-v1"]. *)
val schema : string

(** Profile a captured compile's log: {!Dtrace.assemble} folds it into
    the forest whose end time is the end-to-end time, and the series
    are counted from the log, the forest and [counts]. *)
val make :
  module_name:string ->
  procs:int ->
  strategy:string ->
  seconds_per_unit:float ->
  counts:counts ->
  Evlog.record array ->
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

(** The [mcc_*] series plus series for the attribution table, the
    per-class busy time and the end-to-end time, so a scrape carries
    the whole profile. *)
val to_prometheus : t -> string
