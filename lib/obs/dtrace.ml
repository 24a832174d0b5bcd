(* The span forest: every timeline mcc shows is rendered from it.

   [assemble] folds a captured [Evlog] into one forest of spans on a
   single virtual-time axis.  Two kinds of log feed it:

   - A captured compile (one DES engine run) becomes a one-root forest:
     a "compile" root, one "inner-task" span per DES task, and under
     each task the segments that exactly tile its life — "queue"
     (ready, not yet dispatched), "run" and "barrier-wait" (on a
     simulated processor, held in [d_proc]), "dky-wait" and
     "event-wait" (suspended on a handled event), "backoff" (a crashed
     start sitting out its retry delay).  A wait span records its
     signaller and a task's first queue span its gate signaller or
     spawner in [d_cause]: the edges the compile critical path follows.
     WatchTool (paper Figs. 4 and 7), utilization, the profile and the
     Chrome export all render from this forest.
   - A traced serve or farm run brackets every unit of a request's life
     with [Evlog.Span_start]/[Span_end] pairs ([Trace_ctx] ids), and
     runs each nested [Driver.compile] under its own nested
     [Evlog.capture]; the inner log rides along as a [sub] keyed by the
     owning span.  Each inner engine contributes one "inner-task" span
     per task, rebased at the owning span's start (and stretched by the
     gray-failure slowdown where the farm applied one), so a compile's
     intra-engine schedule nests inside the service span that paid for
     it.

   Span kinds split in two:

   - *tile kinds* must exactly partition their parent: a job is tiled
     by queue + service; a service by probe / compile / retry; a farm
     task (and the final assembly) by fetch + compute; a DES task by
     its queue / run / wait / backoff segments.  Zero gap, zero
     overlap — [tiling_violations] enforces it, and the BENCH_trace
     gate rides on it: every virtual second of a job's sojourn is
     attributed, or the bench fails.
   - *annotation kinds* (rpc attempt/hedge legs, the inner tasks of an
     engine) are containment-only: a hedged fetch deliberately overlaps
     the primary's retry timeline, and inner tasks run concurrently.

   Everything here is in Evlog virtual-time units; renderers take
   [sec_per_unit] to print seconds.  All output is deterministic:
   span ids are allocation-ordered, children sort by (t0, id), floats
   format through [Json]. *)

type span = {
  d_span : int;
  d_parent : int; (* -1 = root *)
  d_trace : string;
  d_name : string;
  d_kind : string;
  d_node : int; (* -1 = not node-bound *)
  d_proc : int; (* simulated processor of a run/barrier-wait span; -1 otherwise *)
  d_cls : string; (* DES task class of an inner task and its segments; "" otherwise *)
  d_cause : (int * float) option;
      (* task span id and time of what ended a wait (its signaller) or
         readied a task's first queue span (gate signaller or spawner;
         -1 = the scheduler) *)
  d_t0 : float; (* virtual units *)
  d_t1 : float;
  d_status : string; (* "ok", "hit", "shed", "deadline", "crashed", "lost", ... *)
}

(* A nested engine capture owned by one span: [sub_t0] is the owner's
   absolute start (units); [sub_scale] stretches inner units to outer
   ones (a gray-failed farm node compiles [Costs.node_slow_factor]x
   slower than its inner simulation). *)
type sub = {
  sub_owner : int;
  sub_t0 : float;
  sub_scale : float;
  sub_log : Evlog.record array;
}

(* A fault-recovery moment of an engine run: an injection, a retry, a
   quarantine or a watchdog rescue. *)
type instant = { i_t : float; i_name : string; i_detail : string }

type t = {
  spans : span list; (* outer spans in start order, then engine tasks, each before its segments *)
  instants : instant list; (* chronological *)
  end_time : float; (* last span end / last record, units *)
}

let duration s = s.d_t1 -. s.d_t0

let eps t = 1e-9 *. Float.max 1.0 t.end_time

let engine_segments = [ "queue"; "run"; "barrier-wait"; "dky-wait"; "event-wait"; "backoff" ]

(* Tiling relation: which child kinds must partition which parents. *)
let is_tile ~parent_kind ~child_kind =
  match (parent_kind, child_kind) with
  | "job", ("queue" | "service") -> true
  | "service", ("probe" | "compile" | "retry") -> true
  | ("task" | "assembly"), ("fetch" | "compute") -> true
  | "inner-task", k -> List.mem k engine_segments
  | _ -> false

let by_id t = List.fold_left (fun tbl s -> Hashtbl.replace tbl s.d_span s; tbl) (Hashtbl.create 64) t.spans

let children t =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.d_parent >= 0 then
        Hashtbl.replace tbl s.d_parent (s :: Option.value ~default:[] (Hashtbl.find_opt tbl s.d_parent)))
    t.spans;
  Hashtbl.iter
    (fun k v -> Hashtbl.replace tbl k (List.sort (fun a b -> compare (a.d_t0, a.d_span) (b.d_t0, b.d_span)) v))
    (Hashtbl.copy tbl);
  tbl

let roots t = List.filter (fun s -> s.d_parent < 0) t.spans

let mk ?(node = -1) ?(proc = -1) ?(cls = "") ?cause ?(status = "ok") ~id ~parent ~trace ~name
    ~kind t0 t1 =
  {
    d_span = id;
    d_parent = parent;
    d_trace = trace;
    d_name = name;
    d_kind = kind;
    d_node = node;
    d_proc = proc;
    d_cls = cls;
    d_cause = cause;
    d_t0 = t0;
    d_t1 = t1;
    d_status = status;
  }

(* ------------------------------------------------------------------ *)
(* Engine logs: one timeline per DES task *)

(* A DES task replayed from its engine's log: its span (d_cause = who
   made it ready, d_t1 < 0 until it finishes) and its segments so far,
   reversed, numbered at assembly. *)
type etask = {
  mutable task : span;
  mutable segs : span list;
  mutable ready : float; (* spawn, or gate release *)
  mutable gate : int; (* gate event; -1 ungated *)
  mutable proc : int; (* processor of the current dispatch *)
  mutable run : float; (* start of the open run stretch; -1 none *)
  mutable wait : (int * span) option; (* open wait: event, span of its handled kind *)
  mutable woke : span option;
      (* the wait that just ended: a Task_resume makes it a handled wait
         followed by a queue span; anything else, a barrier wait (the
         task kept its processor) *)
  mutable dky : int; (* pending DKY event; -1 none *)
  mutable retry : float; (* time of the last retry record; -1 none *)
  mutable rescued : int; (* event whose wake the watchdog re-delivered; -1 none *)
}

(* Replay an engine log into per-task timelines (ascending task id)
   and its fault instants. *)
let engine_tasks (log : Evlog.record array) =
  let tasks = Hashtbl.create 64 in
  let first_signal = Hashtbl.create 64 and ev_names = Hashtbl.create 64 in
  let instants = ref [] in
  let get id =
    match Hashtbl.find_opt tasks id with
    | Some e -> e
    | None ->
        let task =
          mk ~cls:"aux" ~cause:(-1, 0.0) ~id ~parent:(-1) ~trace:"" ~name:(Printf.sprintf "task#%d" id)
            ~kind:"inner-task" 0.0 (-1.0)
        in
        let e =
          { task; segs = []; ready = 0.0; gate = -1; proc = -1; run = -1.0; wait = None; woke = None;
            dky = -1; retry = -1.0; rescued = -1 }
        in
        Hashtbl.add tasks id e;
        e
  in
  let ev_name ev = Option.value ~default:(Printf.sprintf "event#%d" ev) (Hashtbl.find_opt ev_names ev) in
  let seg e ?proc ?cause kind name t0 =
    mk ?proc ~cls:e.task.d_cls ?cause ~id:(-1) ~parent:e.task.d_span ~trace:"" ~name ~kind t0
  in
  let push e g = if g.d_t1 > g.d_t0 then e.segs <- g :: e.segs in
  (* the first queue: whoever made the task ready is the gate's first
     signaller when that is another task, else the spawner *)
  let queue_or_backoff e t =
    if e.retry >= 0.0 then push e (seg e "backoff" "backoff" e.retry t)
    else begin
      (match Hashtbl.find_opt first_signal e.gate with
      | Some (by, _) as cause when e.gate >= 0 && by >= 0 && by <> e.task.d_span ->
          e.task <- { e.task with d_cause = cause }
      | _ -> ());
      push e (seg e ?cause:e.task.d_cause "queue" "queue" e.ready t)
    end
  in
  (* the open stretch ends at [t]: a run, or a backoff that never
     restarted (retries exhausted) *)
  let close e t =
    Option.iter (fun w -> push e { w with d_kind = "barrier-wait" }) e.woke;
    e.woke <- None;
    if e.run >= 0.0 then push e (seg e ~proc:e.proc "run" e.task.d_name e.run t)
    else if e.retry >= 0.0 then push e (seg e "backoff" "backoff" e.retry t);
    e.run <- -1.0;
    e.retry <- -1.0
  in
  let finish e t status =
    close e t;
    e.task <- { e.task with d_t1 = t; d_status = status }
  in
  let instant name detail t = instants := { i_t = t; i_name = name; i_detail = detail } :: !instants in
  Array.iter
    (fun (r : Evlog.record) ->
      let t = r.Evlog.time in
      match r.Evlog.kind with
      | Evlog.Task_spawn { task; name; cls; gate } ->
          let e = get task in
          e.task <-
            { e.task with d_name = name; d_cls = cls; d_t0 = t; d_cause = Some (r.Evlog.task, t) };
          e.ready <- t;
          e.gate <- gate
      | Evlog.Gate_release { task; ev } ->
          let e = get task in
          let cause = Hashtbl.find_opt first_signal ev in
          push e (seg e ?cause "event-wait" (ev_name ev) e.task.d_t0 t);
          e.ready <- t
      | Evlog.Ev_signal { ev; name } ->
          if not (Hashtbl.mem first_signal ev) then Hashtbl.add first_signal ev (r.Evlog.task, t);
          if name <> "" then Hashtbl.replace ev_names ev name
      | Evlog.Task_retry { task; attempt } ->
          let e = get task in
          queue_or_backoff e t;
          e.retry <- t;
          instant "retry" (Printf.sprintf "%s (attempt %d)" e.task.d_name attempt) t
      | Evlog.Task_start { task; proc } ->
          let e = get task in
          queue_or_backoff e t;
          e.retry <- -1.0;
          e.proc <- proc;
          e.run <- t
      | Evlog.Dky_block { ev; _ } -> (get r.Evlog.task).dky <- ev
      | Evlog.Dky_unblock _ -> (get r.Evlog.task).dky <- -1
      | Evlog.Ev_block { ev; name; _ } ->
          if name <> "" then Hashtbl.replace ev_names ev name;
          let e = get r.Evlog.task in
          close e t;
          let kind = if e.dky = ev then "dky-wait" else "event-wait" in
          e.wait <- Some (ev, seg e kind (ev_name ev) t t)
      | Evlog.Watchdog_fire { ev; task } ->
          let e = get task in
          e.rescued <- ev;
          instant "watchdog" e.task.d_name t
      | Evlog.Ev_wake { ev; task } -> (
          let e = get task in
          match e.wait with
          | Some (ev', w) when ev' = ev ->
              let d_status = if e.rescued = ev then "recovered" else "ok" in
              let d_cause = Hashtbl.find_opt first_signal ev in
              e.woke <- Some { w with d_t1 = t; d_proc = e.proc; d_cause; d_status };
              e.wait <- None;
              e.run <- t
          | _ -> ())
      | Evlog.Task_resume { task; proc } ->
          let e = get task in
          Option.iter (fun w -> push e { w with d_proc = -1 }) e.woke;
          e.woke <- None;
          push e (seg e "queue" "queue" e.run t);
          e.proc <- proc;
          e.run <- t
      | Evlog.Task_finish { task } -> finish (get task) t (get task).task.d_status
      | Evlog.Task_quarantine { task; name } ->
          finish (get task) t "quarantined";
          instant "quarantine" name t
      | Evlog.Fault_inject { fault; victim } -> instant ("inject:" ^ fault) victim t
      | _ -> ())
    log;
  let tasks = Hashtbl.fold (fun _ e acc -> e :: acc) tasks [] in
  (List.sort (fun a b -> compare a.task.d_span b.task.d_span) tasks, List.rev !instants)

(* ------------------------------------------------------------------ *)
(* Assembly *)

type open_span = {
  o_parent : int;
  o_trace : string;
  o_name : string;
  o_kind : string;
  o_node : int;
  o_t0 : float;
}

let assemble ?(subs = []) (log : Evlog.record array) : t =
  let opened : (int, open_span) Hashtbl.t = Hashtbl.create 64 in
  let closed : (int, span) Hashtbl.t = Hashtbl.create 64 in
  let ids = ref [] (* span ids in open order, reversed *) in
  let last_time = ref 0.0 in
  let close id (o : open_span) t1 status =
    Hashtbl.replace closed id
      (mk ~node:o.o_node ~status ~id ~parent:o.o_parent ~trace:o.o_trace ~name:o.o_name
         ~kind:o.o_kind o.o_t0 t1)
  in
  Array.iter
    (fun (r : Evlog.record) ->
      if r.Evlog.time > !last_time then last_time := r.Evlog.time;
      match r.Evlog.kind with
      | Evlog.Span_start { span; parent; trace; name; kind; node } ->
          ids := span :: !ids;
          Hashtbl.replace opened span
            { o_parent = parent; o_trace = trace; o_name = name; o_kind = kind; o_node = node; o_t0 = r.Evlog.time }
      | Evlog.Span_end { span; status } -> (
          match Hashtbl.find_opt opened span with
          | None -> () (* end without start: dropped (should not happen) *)
          | Some o ->
              Hashtbl.remove opened span;
              close span o r.Evlog.time status)
      | _ -> ())
    log;
  (* Close anything left open — a crashed node's scheduled fetch/compute
     ends never fired — at its parent's end (parents are allocated
     before children, so ascending id order closes parents first). *)
  let ordered = List.rev !ids in
  List.iter
    (fun id ->
      match Hashtbl.find_opt opened id with
      | None -> ()
      | Some o ->
          let t1 =
            match Hashtbl.find_opt closed o.o_parent with
            | Some p -> Float.max o.o_t0 p.d_t1
            | None -> Float.max o.o_t0 !last_time
          in
          close id o t1 "lost")
    ordered;
  let outer = List.filter_map (Hashtbl.find_opt closed) ordered in
  let next = ref (List.fold_left (fun acc s -> max acc s.d_span) 0 outer) in
  let fresh () = incr next; !next in
  (* The log's own engine run, if it is a captured compile: a "compile"
     root, task spans under their DES task ids, and each task's
     segments under fresh ids. *)
  let tasks, instants = engine_tasks log in
  let ended e =
    if e.task.d_t1 >= 0.0 then e.task else { e.task with d_t1 = !last_time; d_status = "unfinished" }
  in
  let compile =
    if tasks = [] then []
    else begin
      next := List.fold_left (fun acc e -> max acc e.task.d_span) !next tasks;
      let root = fresh () in
      let trace = Trace_ctx.trace_id ~domain:"compile" ~seed:0 ~key:"" in
      mk ~id:root ~parent:(-1) ~trace ~name:"compile" ~kind:"compile" 0.0 !last_time
      :: List.concat_map
           (fun e ->
             { (ended e) with d_parent = root; d_trace = trace }
             :: List.map (fun g -> { g with d_span = fresh (); d_trace = trace }) (List.rev e.segs))
           tasks
    end
  in
  (* Inner engine logs: one "inner-task" span per task of each sub,
     rebased at the owner's start, clamped into the owner interval. *)
  let inner =
    List.concat_map
      (fun sub ->
        match Hashtbl.find_opt closed sub.sub_owner with
        | None -> []
        | Some owner ->
            let at v = Float.min owner.d_t1 (Float.max owner.d_t0 (sub.sub_t0 +. (sub.sub_scale *. v))) in
            List.map
              (fun e ->
                let s = ended e in
                let t0 = at s.d_t0 in
                let t1 = if s.d_status = "unfinished" then owner.d_t1 else at s.d_t1 in
                { s with d_span = fresh (); d_parent = owner.d_span; d_trace = owner.d_trace;
                  d_node = owner.d_node; d_cause = None; d_t0 = t0; d_t1 = Float.max t0 t1 })
              (fst (engine_tasks sub.sub_log)))
      subs
  in
  let spans = outer @ compile @ inner in
  let end_time = List.fold_left (fun acc s -> Float.max acc s.d_t1) !last_time spans in
  { spans; instants; end_time }

(* ------------------------------------------------------------------ *)
(* Validation *)

(* Spans whose parent id names no span in the forest. *)
let orphans t =
  let tbl = by_id t in
  List.filter (fun s -> s.d_parent >= 0 && not (Hashtbl.mem tbl s.d_parent)) t.spans

(* (child, parent) pairs where the child interval leaks outside the
   parent's. *)
let containment_violations t =
  let tbl = by_id t in
  let e = eps t in
  List.filter_map
    (fun s ->
      match if s.d_parent >= 0 then Hashtbl.find_opt tbl s.d_parent else None with
      | Some p when s.d_t0 < p.d_t0 -. e || s.d_t1 > p.d_t1 +. e -> Some (s, p)
      | _ -> None)
    t.spans

(* Parents whose tile children do not exactly partition them: any gap,
   overlap, or mismatched extent is a violation.  Parents interrupted
   by a crash ("crashed"/"lost", or holding a "lost" child) are
   exempt — their timeline was genuinely truncated — and so are DES
   tasks still parked when their engine stopped ("unfinished"). *)
let tiling_violations t =
  let kids = children t in
  let e = eps t in
  List.filter_map
    (fun p ->
      if List.mem p.d_status [ "crashed"; "lost"; "unfinished" ] then None
      else
        let tiles =
          List.filter
            (fun c -> is_tile ~parent_kind:p.d_kind ~child_kind:c.d_kind)
            (Option.value ~default:[] (Hashtbl.find_opt kids p.d_span))
        in
        if tiles = [] then None
        else if List.exists (fun c -> c.d_status = "lost") tiles then None
        else
          let problem = ref None in
          let flag fmt = Printf.ksprintf (fun m -> if !problem = None then problem := Some m) fmt in
          let cursor = ref p.d_t0 in
          List.iter
            (fun c ->
              if c.d_t0 > !cursor +. e then flag "gap %.3f..%.3f before %s" !cursor c.d_t0 c.d_name
              else if c.d_t0 < !cursor -. e then flag "overlap at %.3f on %s" c.d_t0 c.d_name;
              cursor := c.d_t1)
            tiles;
          if Float.abs (!cursor -. p.d_t1) > e then
            flag "tiles end at %.3f, span at %.3f" !cursor p.d_t1;
          Option.map (fun m -> (p, m)) !problem)
    t.spans

(* The one-call gate: orphans, containment, tiling. *)
let validate t =
  match orphans t with
  | o :: _ -> Error (Printf.sprintf "orphan span #%d %s: parent #%d missing" o.d_span o.d_name o.d_parent)
  | [] -> (
      match containment_violations t with
      | (c, p) :: _ ->
          Error
            (Printf.sprintf "span #%d %s [%.3f, %.3f] leaks outside parent #%d %s [%.3f, %.3f]"
               c.d_span c.d_name c.d_t0 c.d_t1 p.d_span p.d_name p.d_t0 p.d_t1)
      | [] -> (
          match tiling_violations t with
          | (p, m) :: _ -> Error (Printf.sprintf "span #%d %s not exactly tiled: %s" p.d_span p.d_name m)
          | [] -> Ok ()))

(* All spans of one trace, chronological — the post-mortem bundle the
   SLO flight recorder dumps for a tripped job. *)
let bundle t ~trace =
  List.filter (fun s -> s.d_trace = trace) t.spans
  |> List.sort (fun a b -> compare (a.d_t0, a.d_span) (b.d_t0, b.d_span))

(* ------------------------------------------------------------------ *)
(* Critical path *)

(* One attributed interval of the end-to-end walk, charged to span
   [c_span] (a DES task id in a compile forest). *)
type cseg = { c_t0 : float; c_t1 : float; c_bucket : string; c_name : string; c_node : int; c_span : int }

type crit = {
  c_end : float; (* end-to-end virtual units, tiled exactly by c_segs *)
  c_segs : cseg list; (* chronological *)
  c_buckets : (string * float) list; (* bucket -> units, largest first *)
  c_critical_node : int; (* node carrying the most on-path compute; -1 none *)
  c_critical_rpc : string; (* longest on-path network fetch; "" none *)
}

let bucket_of (s : span) =
  match s.d_kind with
  | "queue" -> "queue-wait"
  | "probe" -> "remote-cache"
  (* "hit" = found locally, "miss" = no remote copy existed (compiled
     cold in the compute phase): both are cache-probe time, not wire
     time *)
  | "fetch" -> ( match s.d_status with "hit" | "miss" -> "remote-cache" | _ -> "network")
  | _ -> "compute"

(* Phase attribution of a DES task class (paper Fig. 5 / §2.3.4). *)
let phase_of_cls = function
  | "lexor" -> "lex"
  | "splitter" -> "split"
  | "importer" -> "import"
  | "defparse" | "modparse" | "procparse" -> "parse/sem"
  | "longgen" | "shortgen" -> "codegen"
  | "merge" -> "merge"
  | _ -> "startup" (* aux: the bootstrap task that wires the graph *)

let latest_last spans =
  List.fold_left
    (fun acc s ->
      match acc with
      | Some (b : span) when (b.d_t1, b.d_span) >= (s.d_t1, s.d_span) -> acc
      | _ -> Some s)
    None spans

(* The compile walk answers what bounds the speedup of one compilation
   (paper §4).  From the last-finishing DES task, walk backwards
   through its segments:

   - a run is compilation: charged to the task's phase;
   - a wait whose event was signalled strictly inside the remaining
     stretch charges the tail to its wait bucket and jumps to the
     signaller at the signal time; otherwise the whole wait is charged
     (dky-block, token-wait, completion-wait, event-wait, or recovery
     for a watchdog rescue) and the walk stays in the task;
   - a queue is charged to "queue:<class>"; a first queue then jumps to
     its cause (gate signaller or spawner), a queue after a wake stays
     in the task;
   - a backoff is recovery.

   Each step charges the interval between the new cursor and the old
   one, so the segments tile [0, end] exactly. *)
let engine_segs t =
  let eps = 1e-9 in
  let kids = children t in
  let tasks = Hashtbl.create 64 in
  List.iter (fun s -> if s.d_kind = "inner-task" then Hashtbl.replace tasks s.d_span s) t.spans;
  let finished =
    Hashtbl.fold (fun _ s acc -> if s.d_status = "unfinished" then acc else s :: acc) tasks []
  in
  match latest_last finished with
  | None -> None
  | Some last ->
      let c_end = Float.max t.end_time last.d_t1 in
      let segs = ref [] in
      let add bucket task t0 t1 =
        if t1 -. t0 > eps then begin
          let name =
            match Hashtbl.find_opt tasks task with
            | Some s -> s.d_name
            | None -> if task < 0 then "scheduler" else Printf.sprintf "task#%d" task
          in
          segs :=
            { c_t0 = t0; c_t1 = t1; c_bucket = bucket; c_name = name; c_node = -1; c_span = task } :: !segs
        end
      in
      (* latest segment beginning strictly before the cursor *)
      let seg_before task cursor =
        List.fold_left
          (fun acc g -> if g.d_t0 < cursor -. eps then Some g else acc)
          None
          (Option.value ~default:[] (Hashtbl.find_opt kids task))
      in
      let wait_bucket g =
        if g.d_status = "recovered" then "recovery"
        else if g.d_kind = "dky-wait" then "dky-block"
        else if Filename.check_suffix g.d_name ".avail" then "token-wait"
        else if Filename.check_suffix g.d_name ".complete" then "completion-wait"
        else "event-wait"
      in
      let max_steps = (4 * List.length t.spans) + 64 in
      let rec walk steps task cursor =
        if cursor <= eps then ()
        else if steps > max_steps then add "unattributed" task 0.0 cursor
        else
          let jump bucket from_t = function
            | Some (by, at) when by >= 0 && by <> task ->
                if at < from_t -. eps then add bucket task at from_t;
                walk (steps + 1) by (Float.min from_t at)
            | _ -> add "startup" task 0.0 from_t
          in
          match Hashtbl.find_opt tasks task with
          | None -> add "startup" task 0.0 cursor
          | Some sp -> (
              match seg_before task cursor with
              | None -> jump "startup" cursor sp.d_cause
              | Some g -> (
                  match g.d_kind with
                  | "run" ->
                      add (phase_of_cls sp.d_cls) task g.d_t0 cursor;
                      walk (steps + 1) task g.d_t0
                  | "backoff" ->
                      add "recovery" task g.d_t0 cursor;
                      walk (steps + 1) task g.d_t0
                  | "queue" -> (
                      let bucket = "queue:" ^ sp.d_cls in
                      add bucket task g.d_t0 cursor;
                      match g.d_cause with
                      | Some _ -> jump bucket g.d_t0 g.d_cause
                      | None -> walk (steps + 1) task g.d_t0)
                  | _ -> (
                      let bucket = wait_bucket g in
                      match g.d_cause with
                      | Some (by, at)
                        when at > g.d_t0 +. eps && at < cursor -. eps && by >= 0 && by <> task ->
                          add bucket task at cursor;
                          walk (steps + 1) by at
                      | _ ->
                          add bucket task g.d_t0 cursor;
                          walk (steps + 1) task g.d_t0)))
      in
      walk 0 last.d_span c_end;
      Some (c_end, !segs)

(* The cross-node walk over serve/farm spans, which carry no cause
   edges: from the last-finishing work span, recurse through tile
   children (so a service splits into probe + compile); at a span's
   start, jump to the latest-finishing work span that ended by then —
   the run that was actually binding — charging any gap to
   "sched-wait"; with no predecessor, the head [0, t0] is "arrival".
   Every interval between 0 and the anchor's end is attributed exactly
   once, so the bucket totals sum to the end-to-end time by
   construction. *)
let work_segs t works =
  let kids = children t in
  let e = eps t in
  match latest_last works with
  | None -> None
  | Some anchor ->
      let segs = ref [] in
      let add t0 t1 bucket name node =
        if t1 -. t0 > e then
          segs :=
            { c_t0 = t0; c_t1 = t1; c_bucket = bucket; c_name = name; c_node = node; c_span = -1 } :: !segs
      in
      (* attribute [s.d_t0, cursor] through s's tile children, recursively *)
      let rec attribute s cursor =
        let tiles =
          List.filter
            (fun c -> is_tile ~parent_kind:s.d_kind ~child_kind:c.d_kind)
            (Option.value ~default:[] (Hashtbl.find_opt kids s.d_span))
        in
        if tiles = [] then add s.d_t0 cursor (bucket_of s) s.d_name s.d_node
        else begin
          let cur = ref cursor in
          List.iter
            (fun c ->
              if c.d_t0 < !cur then begin
                attribute c (Float.min c.d_t1 !cur);
                (* defensive: a gap between tiles is charged to the parent *)
                if c.d_t1 < !cur -. e then add c.d_t1 !cur (bucket_of s) s.d_name s.d_node;
                cur := c.d_t0
              end)
            (List.rev tiles);
          if s.d_t0 < !cur -. e then add s.d_t0 !cur (bucket_of s) s.d_name s.d_node
        end
      in
      (* dependency names of s, from its fetch children: "fetch:M04" -> "M04" *)
      let deps_of s =
        List.filter_map
          (fun c ->
            if c.d_kind = "fetch" then
              match String.index_opt c.d_name ':' with
              | Some i -> Some (String.sub c.d_name (i + 1) (String.length c.d_name - i - 1))
              | None -> None
            else None)
          (Option.value ~default:[] (Hashtbl.find_opt kids s.d_span))
      in
      let max_steps = List.length works + 8 in
      let rec walk steps s =
        attribute s s.d_t1;
        if s.d_t0 > e then
          if steps >= max_steps then add 0.0 s.d_t0 "arrival" s.d_name (-1)
          else begin
            let deps = deps_of s in
            let is_dep c = List.exists (fun d -> c.d_name = "task:" ^ d) deps in
            let pred =
              List.fold_left
                (fun acc c ->
                  if c.d_span = s.d_span || c.d_t1 > s.d_t0 +. e || duration c <= e then acc
                  else
                    let score c = (c.d_t1, (if is_dep c then 2 else if c.d_node = s.d_node then 1 else 0), c.d_span) in
                    match acc with
                    | Some b when score b >= score c -> acc
                    | _ -> Some c)
                None works
            in
            match pred with
            | Some p ->
                if s.d_t0 -. p.d_t1 > e then add p.d_t1 s.d_t0 "sched-wait" s.d_name s.d_node;
                walk (steps + 1) p
            | None -> add 0.0 s.d_t0 "arrival" s.d_name (-1)
          end
      in
      walk 0 anchor;
      Some (anchor.d_t1, !segs)

(* Critical path of a forest: the compile walk when it holds no serve
   or farm work spans, the cross-node walk otherwise. *)
let critpath t =
  let works = List.filter (fun s -> List.mem s.d_kind [ "job"; "task"; "assembly" ]) t.spans in
  match if works = [] then engine_segs t else work_segs t works with
  | None -> { c_end = 0.0; c_segs = []; c_buckets = []; c_critical_node = -1; c_critical_rpc = "" }
  | Some (c_end, segs) ->
      let segs = List.sort (fun a b -> compare (a.c_t0, a.c_t1) (b.c_t0, b.c_t1)) segs in
      let buckets = Hashtbl.create 8 in
      List.iter
        (fun c ->
          let v = Option.value ~default:0.0 (Hashtbl.find_opt buckets c.c_bucket) in
          Hashtbl.replace buckets c.c_bucket (v +. (c.c_t1 -. c.c_t0)))
        segs;
      let c_buckets =
        Hashtbl.fold (fun k v acc -> (k, v) :: acc) buckets []
        |> List.sort (fun (ka, va) (kb, vb) -> compare (-.va, ka) (-.vb, kb))
      in
      let node_compute = Hashtbl.create 8 in
      List.iter
        (fun c ->
          if c.c_bucket = "compute" && c.c_node >= 0 then
            let v = Option.value ~default:0.0 (Hashtbl.find_opt node_compute c.c_node) in
            Hashtbl.replace node_compute c.c_node (v +. (c.c_t1 -. c.c_t0)))
        segs;
      let c_critical_node =
        Hashtbl.fold
          (fun n v acc -> match acc with Some (_, bv) when (bv, -n) >= (v, -n) -> acc | _ -> Some (n, v))
          node_compute None
        |> Option.map fst |> Option.value ~default:(-1)
      in
      let c_critical_rpc =
        List.fold_left
          (fun acc c ->
            if c.c_bucket <> "network" then acc
            else
              match acc with
              | Some (b : cseg) when b.c_t1 -. b.c_t0 >= c.c_t1 -. c.c_t0 -> acc
              | _ -> Some c)
          None segs
        |> Option.map (fun c -> if c.c_node >= 0 then Printf.sprintf "%s@node%d" c.c_name c.c_node else c.c_name)
        |> Option.value ~default:""
      in
      { c_end; c_segs = segs; c_buckets; c_critical_node; c_critical_rpc }

let crit_total crit = List.fold_left (fun acc (_, v) -> acc +. v) 0.0 crit.c_buckets

(* ------------------------------------------------------------------ *)
(* Rendering and export *)

(* Per-request waterfall: each root span and its subtree, one row per
   span with interval, duration and a bar scaled to the root window.
   [max_depth] 2 shows the request anatomy; 3+ adds inner engine
   tasks. *)
let waterfall ?(width = 32) ?(max_depth = 2) ~sec_per_unit t =
  let kids = children t in
  let buf = Buffer.create 4096 in
  let sec u = u *. sec_per_unit in
  let bar lo hi t0 t1 =
    if hi -. lo <= 0.0 then String.make width '.'
    else
      let pos v = int_of_float (float_of_int width *. (v -. lo) /. (hi -. lo)) in
      let a = max 0 (min (width - 1) (pos t0)) in
      let b = max a (min (width - 1) (pos t1 - 1)) in
      String.init width (fun i -> if i >= a && i <= b then '#' else '.')
  in
  let rec row depth lo hi s =
    if depth <= max_depth then begin
      Buffer.add_string buf
        (Printf.sprintf "%s%-*s %9.3fs - %9.3fs %9.3fs  |%s|%s\n" (String.make (2 * depth) ' ')
           (max 1 (24 - (2 * depth)))
           s.d_name (sec s.d_t0) (sec s.d_t1)
           (sec (duration s))
           (bar lo hi s.d_t0 s.d_t1)
           (if s.d_status = "ok" then "" else "  " ^ s.d_status));
      List.iter (row (depth + 1) lo hi) (Option.value ~default:[] (Hashtbl.find_opt kids s.d_span))
    end
  in
  List.iter
    (fun r ->
      Buffer.add_string buf (Printf.sprintf "trace %s  %s%s\n" r.d_trace r.d_name
        (match r.d_node with -1 -> "" | n -> Printf.sprintf "  (node%d)" n));
      row 1 r.d_t0 r.d_t1 r)
    (List.sort (fun a b -> compare (a.d_t0, a.d_span) (b.d_t0, b.d_span)) (roots t));
  Buffer.contents buf

(* OTLP-flavoured JSON: resourceSpans / scopeSpans / spans with the
   standard field names (traceId 32 hex, spanId/parentSpanId 16 hex,
   start/endTimeUnixNano).  "UnixNano" here is *virtual* nanoseconds —
   the simulation has no wall clock, which is also what makes the
   export byte-identical across same-seed runs. *)
let to_otlp ~sec_per_unit t =
  let module J = Json in
  let nanos u = J.Int (int_of_float ((u *. sec_per_unit *. 1e9) +. 0.5)) in
  let attr k v = J.Obj [ ("key", J.Str k); ("value", J.Obj [ v ]) ] in
  let span_json s =
    J.Obj
      [
        ("traceId", J.Str (s.d_trace ^ s.d_trace));
        ("spanId", J.Str (Printf.sprintf "%016x" s.d_span));
        ("parentSpanId", J.Str (if s.d_parent < 0 then "" else Printf.sprintf "%016x" s.d_parent));
        ("name", J.Str s.d_name);
        ("kind", J.Int 1);
        ("startTimeUnixNano", nanos s.d_t0);
        ("endTimeUnixNano", nanos s.d_t1);
        ( "attributes",
          J.Arr
            [
              attr "mcc.kind" ("stringValue", J.Str s.d_kind);
              attr "mcc.node" ("intValue", J.Int s.d_node);
              attr "mcc.status" ("stringValue", J.Str s.d_status);
            ] );
        ("status", J.Obj [ ("code", J.Int (match s.d_status with "ok" | "hit" | "served" -> 1 | _ -> 2)) ]);
      ]
  in
  J.Obj
    [
      ( "resourceSpans",
        J.Arr
          [
            J.Obj
              [
                ( "resource",
                  J.Obj [ ("attributes", J.Arr [ attr "service.name" ("stringValue", J.Str "mcc") ]) ] );
                ( "scopeSpans",
                  J.Arr
                    [
                      J.Obj
                        [
                          ("scope", J.Obj [ ("name", J.Str "mcc.dtrace"); ("version", J.Str "1") ]);
                          ("spans", J.Arr (List.map span_json t.spans));
                        ];
                    ] );
              ];
          ] );
    ]
