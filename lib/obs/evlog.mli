(** The structured concurrency event log.

    A globally ordered record stream of every synchronization-relevant
    action performed while compiling on the DES engine: symbol
    publishes, scope completions, DKY blocks/unblocks, event
    signal/block/wake, gated-task releases, task spawn/start/finish.
    The happens-before checker ([Mcc_analysis.Hb]) replays it to verify
    the DKY ordering invariants of paper §2.3.3 across perturbed
    schedules; {!Dtrace.assemble} folds the same stream into the span
    forest behind every timeline view.

    Capture is off by default; emission sites guard on {!enabled}
    before allocating a record, and no record charges [Eff.work], so
    default compile timings are unaffected.  DES-only: the single-
    threaded engine appends records in true execution order (the domain
    engine never enables capture). *)

type kind =
  | Task_spawn of {
      task : int;
      name : string;
      cls : string;  (** [Task.cls_name] of the spawned task *)
      gate : int;  (** gate event id, -1 ungated *)
    }
  | Task_start of { task : int; proc : int  (** simulated processor *) }
  | Task_resume of { task : int; proc : int }
      (** a woken (handled-wait) task dispatched again onto [proc];
          barrier waiters keep their processor and get no record *)
  | Task_finish of { task : int }
  | Ev_signal of { ev : int; name : string }
  | Ev_block of { ev : int; name : string; producer : int  (** expected signaler, -1 unknown *) }
  | Ev_wake of { ev : int; task : int  (** the woken task *) }
  | Gate_release of { ev : int; task : int  (** the released gated task *) }
  | Scope_intern of { scope : int; name : string }
  | Publish of { scope : int; scope_name : string; sym : string }
  | Complete of { scope : int; scope_name : string }
  | Observe of { scope : int; scope_name : string; sym : string; complete : bool }
  | Auth_miss of { scope : int; scope_name : string; sym : string }
      (** a miss in a {e complete} table — authoritative: the symbol
          must never be published to this scope afterwards *)
  | Dky_block of { scope : int; scope_name : string; sym : string; ev : int }
  | Dky_unblock of { scope : int; scope_name : string; sym : string; ev : int }
  | Fault_inject of { fault : string; victim : string }
      (** an armed fault plan fired at an injection site *)
  | Task_retry of { task : int; attempt : int }
      (** a crashed-at-start task redispatched after virtual-time backoff *)
  | Task_quarantine of { task : int; name : string }
      (** retries exhausted (or resume-crash): the task is permanently failed *)
  | Watchdog_fire of { ev : int; task : int }
      (** the stall watchdog re-delivered a lost wake for [task] *)
  | Job_enqueue of { job : int; session : string }
      (** a compile-server job arrived and was offered to admission *)
  | Job_admit of { job : int; session : string }
      (** admission accepted the job into the bounded queue *)
  | Job_shed of { job : int; session : string }
      (** admission rejected the job (queue full): it is never served *)
  | Job_batch of { job : int; leader : int; size : int }
      (** the job rides [leader]'s batch (shared interface closure) *)
  | Job_done of { job : int; warm : bool }
      (** served; [warm] = answered from the shared module memo *)
  | Node_start of { node : int; procs : int }
      (** a farm node came up ([Mcc_farm]; one stream per farm run) *)
  | Node_dead of { node : int }  (** a node-crash fault fired at a heartbeat *)
  | Node_detect of { node : int }
      (** the coordinator noticed the missed heartbeats and re-shards *)
  | Heartbeat of { node : int }
  | Rpc_fetch of { node : int; peer : int; iface : string; attempt : int }
      (** [node] asks [peer] for an interface artifact; attempt 1 = first try *)
  | Rpc_timeout of { node : int; peer : int; iface : string; attempt : int }
      (** the request (or its reply) was lost; the requester backs off *)
  | Rpc_hedge of { node : int; replica : int; iface : string }
      (** the primary is late: a hedged fetch goes to the replica *)
  | Rpc_serve of { node : int; peer : int; iface : string }
      (** [node] delivered the artifact to [peer] (digest-verified) *)
  | Farm_assign of { node : int; iface : string }  (** sharding placed the closure *)
  | Farm_steal of { node : int; victim : int; iface : string }
      (** an idle node stole a runnable closure from [victim]'s queue *)
  | Farm_reshard of { node : int; iface : string }
      (** a dead node's unfinished closure, reassigned to [node] *)
  | Farm_task_done of { node : int; iface : string }
  | Farm_replicate of { node : int; replica : int; iface : string }
      (** the freshly built artifact was pushed to its replica *)
  | Net_partition of { spec : string }  (** the network split ("even|odd") *)
  | Net_heal
  | Span_start of {
      span : int;  (** [Trace_ctx.fresh] id, unique within the capture *)
      parent : int;  (** owning span id; -1 = a trace root *)
      trace : string;  (** deterministic trace id ({!Trace_ctx.trace_id}) *)
      name : string;  (** display name, e.g. ["job#3"] or ["fetch:M04"] *)
      kind : string;  (** tiling/annotation class: ["job"], ["queue"], ... *)
      node : int;  (** acting farm node; -1 = not node-bound *)
    }
      (** a distributed-tracing span opened: serve/farm runs bracket
          every unit of a request's life with start/end pairs that
          [Dtrace] assembles into the per-request span forest *)
  | Span_end of { span : int; status : string  (** ["ok"], ["shed"], ["deadline"], ... *) }

type record = {
  seq : int;
  time : float;  (** virtual work units at append (see {!set_time}) *)
  task : int;  (** emitting task; -1 = scheduler *)
  kind : kind;
}

val enabled : unit -> bool

(** Record which task's code is currently executing (set by the DES
    engine at every dispatch). *)
val set_task : int -> unit

(** Stamp the virtual clock (set by the DES engine at every agenda
    dispatch); subsequent records carry this time. *)
val set_time : float -> unit

(** Append a record (no-op unless capture is on).  Call sites must
    guard with {!enabled} so the record is not even allocated on the
    default path.  Raises [Invalid_argument] if the stamped virtual
    time is older than the last appended record's: the agenda delivers
    work in nondecreasing time order, so a regression is an engine
    bug. *)
val emit : kind -> unit

(** Number of records appended so far in the live capture. *)
val length : unit -> int

(** Iterate the live capture's records in append order. *)
val iter : (record -> unit) -> unit

(** [capture f] runs [f] with logging on and returns [(f (), log)].
    The previous logging state is saved in full and restored on exit
    (exceptions included), so captures nest: a traced serve/farm run
    captures its job-lifecycle log while each inner
    [Driver.compile ~capture:true] takes its own nested capture whose
    log becomes a [Dtrace] sub-trace of the owning span.  The virtual
    clock restarts at 0: one capture wraps one engine run.  (Untraced
    serve/farm runs wrap inner engines in {!suspend} instead.) *)
val capture : (unit -> 'a) -> 'a * record array

(** [suspend f] runs [f] with emission off, restoring the previous
    state on exit (exceptions included).  Used by the compile server
    around inner [Driver.compile] calls: the inner engine restarts its
    clock at 0, which would trip the capture's monotonic-time assert,
    and the server's log records job lifecycle, not intra-compile
    scheduling. *)
val suspend : (unit -> 'a) -> 'a
