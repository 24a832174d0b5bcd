(** WatchTool: ASCII rendering of processor activity over time,
    reproducing the paper's Figures 4 and 7 from the span forest of a
    captured compile ([Mcc_obs.Dtrace.assemble] of [Driver.compile
    ~capture:true]'s log) — one row per processor, one column per time
    bucket, painted with the character of the busiest task class in
    the bucket. *)

(** One-line key for the characters used. *)
val legend : string

(** Render the forest's processor lanes ([width] buckets, default 100). *)
val render : ?width:int -> Mcc_obs.Dtrace.t -> procs:int -> string

(** Mean processor utilization (run time over [procs] x the lanes'
    horizon), in [0, 1]. *)
val utilization : Mcc_obs.Dtrace.t -> procs:int -> float

(** One-line utilization summary with a per-phase busy-share breakdown. *)
val summary : Mcc_obs.Dtrace.t -> procs:int -> string
