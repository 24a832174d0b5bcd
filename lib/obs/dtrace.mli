(** The span forest: the one timeline model behind [m2c trace],
    [m2c profile], WatchTool and the Chrome export.

    A captured compile folds into a one-root forest: a ["compile"] root,
    one ["inner-task"] span per DES task, and under each task the
    segments that exactly tile its life — ["queue"], ["run"],
    ["barrier-wait"], ["dky-wait"], ["event-wait"], ["backoff"] — with
    the simulated processor on run and barrier-wait spans and cause
    edges on waits and first queues.  Traced serve/farm runs bracket
    every unit of a request's life with [Evlog.Span_start]/[Span_end]
    pairs and capture each nested [Driver.compile] log as a {!sub},
    which contributes its inner-task spans.  Tile-kind children (queue,
    service, probe, compile, retry, fetch, compute, DES task segments)
    must exactly partition their parent; annotation kinds (rpc legs,
    inner tasks) are containment-only.  All times are Evlog virtual
    units; renderers take [sec_per_unit]. *)

type span = {
  d_span : int;
  d_parent : int;  (** -1 = root *)
  d_trace : string;
  d_name : string;
  d_kind : string;
  d_node : int;  (** -1 = not node-bound *)
  d_proc : int;  (** simulated processor of a run/barrier-wait span; -1 otherwise *)
  d_cls : string;  (** DES task class of an inner task and its segments; [""] otherwise *)
  d_cause : (int * float) option;
      (** task span id and time of what ended a wait (its signaller), or
          made a task ready (on the task and its first queue span: the
          gate signaller or the spawner, -1 = the scheduler) *)
  d_t0 : float;  (** virtual units *)
  d_t1 : float;
  d_status : string;  (** ["ok"], ["hit"], ["shed"], ["deadline"], ["crashed"], ["lost"], ... *)
}

(** A nested engine capture owned by one span: [sub_t0] is the owner's
    absolute start (units), [sub_scale] stretches inner units to outer
    ones (gray-failed farm nodes run slowed down). *)
type sub = {
  sub_owner : int;
  sub_t0 : float;
  sub_scale : float;
  sub_log : Evlog.record array;
}

(** A fault-recovery moment of an engine run (injection, retry,
    quarantine, watchdog rescue). *)
type instant = { i_t : float; i_name : string; i_detail : string }

type t = {
  spans : span list;
      (** outer spans in start order, then engine tasks, each before its segments *)
  instants : instant list;  (** the log's fault-recovery moments, chronological *)
  end_time : float;  (** last span end / last record, units *)
}

val duration : span -> float

val roots : t -> span list

(** Fold a captured log plus nested engine captures into a forest —
    the only fold from an Evlog to a timeline.  A log holding a DES
    engine run (a captured compile) becomes a ["compile"] root over
    its task spans, which keep their DES task ids, and their
    segments.  Spans left open (a crashed node's scheduled ends never
    fired) close at their parent's end with status ["lost"]; inner
    task spans of [subs] are rebased at the owner's start, scaled by
    [sub_scale], clamped into the owner interval, kind
    ["inner-task"]. *)
val assemble : ?subs:sub list -> Evlog.record array -> t

(** The forest's invariants, first failure as [Error]: every parent id
    names a span, every child interval lies inside its parent's, and
    tile children exactly partition their parent (no gap, overlap or
    mismatched extent; crash-truncated parents and tasks still parked
    when their engine stopped are exempt). *)
val validate : t -> (unit, string) result

(** All spans of one trace, chronological — the post-mortem bundle the
    SLO flight recorder dumps for a tripped job. *)
val bundle : t -> trace:string -> span list

(** One attributed interval of the critical-path walk, charged to
    span [c_span] (the DES task in a compile forest; -1 otherwise). *)
type cseg = {
  c_t0 : float;
  c_t1 : float;
  c_bucket : string;
  c_name : string;
  c_node : int;
  c_span : int;
}

type crit = {
  c_end : float;  (** end-to-end virtual units, tiled exactly by [c_segs] *)
  c_segs : cseg list;  (** chronological *)
  c_buckets : (string * float) list;  (** bucket -> units, largest first *)
  c_critical_node : int;  (** node carrying the most on-path compute; -1 none *)
  c_critical_rpc : string;  (** longest on-path network fetch; [""] none *)
}

(** Phase of a DES task class (paper Fig. 5 / §2.3.4): lex, split,
    import, parse/sem, codegen, merge; anything else is startup. *)
val phase_of_cls : string -> string

(** Critical path; the bucket totals sum to [c_end] exactly by
    construction.

    A compile forest is walked backwards from the last-finishing DES
    task along its cause edges: runs go to the task's phase, waits to
    ["dky-block"], ["token-wait"], ["completion-wait"], ["event-wait"]
    or ["recovery"] (jumping to the signaller when the signal fell
    inside the wait), queues to ["queue:<class>"] (a first queue then
    jumps to its gate signaller or spawner), backoffs to
    ["recovery"], the head to ["startup"].

    Serve and farm forests carry no cause edges: the walk starts at
    the last-finishing work span (job / task / assembly), recurses
    through tile children and jumps to the latest-finishing
    predecessor at each span start (gaps charged to ["sched-wait"],
    the head to ["arrival"]).  Buckets: ["queue-wait"], ["network"],
    ["remote-cache"], ["compute"], ["sched-wait"], ["arrival"]. *)
val critpath : t -> crit

(** Sum of all attributed bucket units; equals [c_end] when complete. *)
val crit_total : crit -> float

(** Per-request waterfall: each root span's subtree, one row per span
    with interval, duration, and a bar scaled to the root window.
    [max_depth] 2 (default) shows the request anatomy, 3 the service
    segments (probe/compile or fetch/compute), 4 adds inner engine
    tasks. *)
val waterfall : ?width:int -> ?max_depth:int -> sec_per_unit:float -> t -> string

(** OTLP-flavoured JSON (resourceSpans / scopeSpans / spans, 32-hex
    trace ids, virtual-time UnixNanos).  Deterministic: same-seed runs
    export byte-identical documents. *)
val to_otlp : sec_per_unit:float -> t -> Json.t
