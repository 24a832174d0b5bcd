(* The structured concurrency event log.

   A single, globally ordered record stream of every synchronization-
   relevant action the compiler performs while running on the DES engine:
   symbol publishes, scope completions, DKY blocks/unblocks, event
   signal/block/wake, gated-task releases, task spawn/start/finish.  The
   happens-before checker ([Mcc_analysis.Hb]) replays this log to verify
   the DKY ordering invariants the paper's correctness argument (§2.3.3)
   rests on, across many perturbed schedules; [Dtrace] folds the same
   stream into the span forest every timeline view renders from.

   The log lives here, at the bottom of the dependency stack, so that
   the scheduler ([Mcc_sched.Des_engine], [Mcc_sched.Supervisor]), the
   symbol tables ([Mcc_sem.Symtab], [Mcc_sem.Modreg]) and the telemetry
   consumers in this library can all reach it without a dependency
   cycle.

   Every record carries the virtual time at which it was appended: the
   engine stamps the clock with [set_time] at each agenda dispatch, and
   [emit] asserts that stamps never regress — the agenda pops in
   nondecreasing time order, so a regression is an engine bug, not a
   legal schedule.

   Capture is off by default and every emission site is guarded by
   [enabled ()] *before* the record is allocated, so the default compile
   path performs no logging work at all — and no record ever charges
   [Eff.work], so even a captured run's virtual timings are identical to
   an uncaptured one.  The log is only meaningful under the single-
   threaded DES engine (the domain engine never enables it): records are
   appended in true execution order, which is exactly the total order
   the checker needs. *)

type kind =
  | Task_spawn of {
      task : int;
      name : string;
      cls : string; (* Task.cls_name of the spawned task *)
      gate : int (* event id; -1 ungated *);
    }
  | Task_start of { task : int; proc : int (* simulated processor *) }
  | Task_resume of { task : int; proc : int }
      (* a woken task dispatched again, onto simulated processor [proc] *)
  | Task_finish of { task : int }
  | Ev_signal of { ev : int; name : string }
  | Ev_block of { ev : int; name : string; producer : int (* task id; -1 unknown *) }
  | Ev_wake of { ev : int; task : int (* the woken task *) }
  | Gate_release of { ev : int; task : int (* the released gated task *) }
  | Scope_intern of { scope : int; name : string }
  | Publish of { scope : int; scope_name : string; sym : string }
  | Complete of { scope : int; scope_name : string }
  | Observe of { scope : int; scope_name : string; sym : string; complete : bool }
  | Auth_miss of { scope : int; scope_name : string; sym : string }
      (* a miss in a *complete* table: authoritative — the symbol must
         never be published to this scope afterwards *)
  | Dky_block of { scope : int; scope_name : string; sym : string; ev : int }
  | Dky_unblock of { scope : int; scope_name : string; sym : string; ev : int }
  | Fault_inject of { fault : string; victim : string }
      (* an armed fault plan fired at an injection site *)
  | Task_retry of { task : int; attempt : int }
      (* a crashed-at-start task redispatched after virtual-time backoff *)
  | Task_quarantine of { task : int; name : string }
      (* retries exhausted (or unsafe): the task is permanently failed *)
  | Watchdog_fire of { ev : int; task : int }
      (* the stall watchdog re-delivered a lost wake for [task] *)
  (* Compile-server lifecycle ([Mcc_serve]): [job] is the server-wide
     job id, [session] the submitting client.  Server captures stamp
     the clock with the server's virtual arrival/completion times. *)
  | Job_enqueue of { job : int; session : string }
  | Job_admit of { job : int; session : string }
  | Job_shed of { job : int; session : string }
      (* admission rejected the job (queue full): it is never served *)
  | Job_batch of { job : int; leader : int; size : int }
      (* the job rides leader's batch (shared interface closure) *)
  | Job_done of { job : int; warm : bool }
      (* served; [warm] = answered from the shared module memo *)
  (* Build-farm lifecycle ([Mcc_farm]): one record stream for the whole
     multi-node run, stamped with the farm's virtual clock.  [node] is
     the acting node; RPC records carry both ends of the link. *)
  | Node_start of { node : int; procs : int }
  | Node_dead of { node : int } (* a node-crash fault fired at a heartbeat *)
  | Node_detect of { node : int }
      (* the coordinator noticed the missed heartbeats and re-shards *)
  | Heartbeat of { node : int }
  | Rpc_fetch of { node : int; peer : int; iface : string; attempt : int }
      (* [node] asks [peer] for an interface artifact; attempt 1 = first try *)
  | Rpc_timeout of { node : int; peer : int; iface : string; attempt : int }
      (* the request (or its reply) was lost; the requester backs off *)
  | Rpc_hedge of { node : int; replica : int; iface : string }
      (* the primary is late: a hedged fetch goes to the replica *)
  | Rpc_serve of { node : int; peer : int; iface : string }
      (* [node] delivered the artifact to [peer] (digest-verified) *)
  | Farm_assign of { node : int; iface : string } (* sharding placed the closure *)
  | Farm_steal of { node : int; victim : int; iface : string }
      (* an idle node stole a runnable closure from [victim]'s queue *)
  | Farm_reshard of { node : int; iface : string }
      (* a dead node's unfinished closure, reassigned to [node] *)
  | Farm_task_done of { node : int; iface : string }
  | Farm_replicate of { node : int; replica : int; iface : string }
      (* the freshly built artifact was pushed to its replica *)
  | Net_partition of { spec : string } (* the network split ("even|odd") *)
  | Net_heal
  (* Distributed-tracing spans ([Trace_ctx] ids): serve and farm runs
     bracket every unit of a request's life — queue, service, probe,
     compile, fetch, compute — with a Span_start/Span_end pair.
     [Dtrace] assembles the pairs (plus captured inner-engine logs)
     into the per-request span forest. *)
  | Span_start of {
      span : int; (* [Trace_ctx.fresh] id, unique within the capture *)
      parent : int; (* owning span id; -1 = a trace root *)
      trace : string; (* deterministic trace id ([Trace_ctx.trace_id]) *)
      name : string; (* display name, e.g. "job#3" or "fetch:M04" *)
      kind : string; (* tiling/annotation class: "job", "queue", ... *)
      node : int; (* acting farm node; -1 = not node-bound *)
    }
  | Span_end of { span : int; status : string (* "ok", "shed", "deadline", ... *) }

type record = {
  seq : int;
  time : float; (* virtual work units at append *)
  task : int (* emitting task; -1 scheduler *);
  kind : kind;
}

let enabled_flag = ref false
let buf : record list ref = ref [] (* reversed *)
let count = ref 0
let current = ref (-1)
let now = ref 0.0
let floor_time = ref 0.0 (* time of the last appended record *)

let enabled () = !enabled_flag
let set_task id = current := id
let set_time t = now := t

let emit kind =
  if !enabled_flag then begin
    if !now < !floor_time then
      invalid_arg
        (Printf.sprintf "Evlog.emit: virtual time went backwards (%.3f after %.3f)" !now
           !floor_time);
    floor_time := !now;
    buf := { seq = !count; time = !now; task = !current; kind } :: !buf;
    incr count
  end

let length () = !count
let iter f = List.iter f (List.rev !buf)

(* Run [f] with capture on and return its captured log.  The previous
   logging state is saved in full and restored on the way out, even on
   exceptions — so captures nest: a traced serve/farm run captures its
   job-lifecycle log while each inner [Driver.compile ~capture:true]
   takes its own nested capture (fresh clock, fresh buffer) whose log
   becomes a [Dtrace] sub-trace of the owning span.  The virtual clock
   restarts at 0: each capture wraps exactly one engine run. *)
let capture f =
  let saved_enabled = !enabled_flag and saved_buf = !buf in
  let saved_count = !count and saved_current = !current in
  let saved_now = !now and saved_floor = !floor_time in
  enabled_flag := true;
  buf := [];
  count := 0;
  current := -1;
  now := 0.0;
  floor_time := 0.0;
  let restore () =
    let log = Array.of_list (List.rev !buf) in
    enabled_flag := saved_enabled;
    buf := saved_buf;
    count := saved_count;
    current := saved_current;
    now := saved_now;
    floor_time := saved_floor;
    log
  in
  match f () with
  | v -> (v, restore ())
  | exception e ->
      ignore (restore ());
      raise e

(* Run [f] with emission off, restoring the flag afterwards.  The
   compile server wraps each inner [Driver.compile] in this: the inner
   engine restarts its own clock at 0, which would trip the outer
   capture's monotonic-time assert, and the server's log records job
   lifecycle, not intra-compile scheduling. *)
let suspend f =
  let saved = !enabled_flag in
  enabled_flag := false;
  Fun.protect ~finally:(fun () -> enabled_flag := saved) f
