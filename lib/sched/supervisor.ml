(* The Supervisor — task queuing and selection (paper §2.3.2, §2.3.4).

   "We initiate one compiler process (Worker) for each real hardware
   processor.  These workers are managed by a supervisor which oversees
   the assignment of tasks to workers."

   The ready list is a priority queue over the task classes of
   [Task.cls_priority]; within the two code-generation classes the
   largest task is selected first ("Code is generated for long procedures
   before short ones to avoid a long sequential tail").  Tasks gated on
   an avoided event are parked until the event occurs.  When a running
   task blocks on a handled event, [prefer] moves the event's producer
   task (if still pending) to the front of its class so that "the task
   whose execution will lead toward the event occurring" runs next.

   The Supervisor is engine-neutral.  The DES engine calls it from a
   single thread; the domain engine serializes access with an external
   mutex. *)

open Mcc_util
module Evlog = Mcc_obs.Evlog

type entry = Fresh of Task.t | Resumed of Task.t * Eff.resumption

let entry_task = function Fresh t -> t | Resumed (t, _) -> t

(* A queued entry.  [prefer] and perturbed picks retire a slot in place
   ([live <- false]); [pick] discards dead slots that reach the top. *)
type slot = { entry : entry; seq : int; cls : int; mutable live : bool }

type t = {
  classes : slot Heap.t array;
      (* one heap per class, keyed (-size_hint in the code-generation
         classes and 0 elsewhere, seq): back-pushes take seq 0, 1, 2, ...
         and front-pushes -1, -2, ..., so heap order is exactly the order
         of a double-ended queue with longest-first selection on top *)
  n_live : int array; (* live slots per class *)
  index : (int, slot) Hashtbl.t; (* task id -> its live slot, for [prefer] *)
  gated : (int, Task.t list) Hashtbl.t; (* event id -> parked tasks *)
  mutable back : int; (* next back-push seq *)
  mutable front : int; (* last front-push seq *)
  mutable n_ready : int;
  mutable n_gated : int;
  mutable submitted : int;
  fifo : bool;
      (* ablation: ignore class priorities and size ordering, treating
         the ready list as one FIFO queue (gating still applies) *)
  perturb : Prng.t option;
      (* schedule exploration: when set, [pick] selects uniformly at
         random within the highest-priority non-empty class instead of
         using FIFO/longest-first tie-breaking.  Any entry of that class
         is a legal choice, so every perturbed run is a schedule the
         Supervisor could have produced; compiler output must not depend
         on which one (the analyzer asserts it doesn't). *)
}

let create ?(fifo = false) ?perturb () =
  (* the dummy takes one task id per Supervisor; the task ids recorded
     in critical-path artifacts count on it *)
  let dummy_task = Task.create ~cls:Task.Aux ~name:"dummy" (fun () -> ()) in
  let dummy = { entry = Fresh dummy_task; seq = 0; cls = 0; live = false } in
  {
    classes = Array.init Task.n_classes (fun _ -> Heap.create dummy);
    n_live = Array.make Task.n_classes 0;
    index = Hashtbl.create 64;
    gated = Hashtbl.create 64;
    back = 0;
    front = 0;
    n_ready = 0;
    n_gated = 0;
    submitted = 0;
    fifo;
    perturb;
  }

let n_ready t = t.n_ready
let n_gated t = t.n_gated
let total_submitted t = t.submitted

(* Queue [entry] at the front or the back of its class. *)
let push t ~front entry =
  let task = entry_task entry in
  let cls = if t.fifo then 0 else Task.cls_priority task.Task.cls in
  let seq =
    if front then begin
      t.front <- t.front - 1;
      t.front
    end
    else begin
      t.back <- t.back + 1;
      t.back - 1
    end
  in
  let by_size =
    (not t.fifo)
    && (cls = Task.cls_priority Task.LongGen || cls = Task.cls_priority Task.ShortGen)
  in
  let key = if by_size then -.float_of_int task.Task.size_hint else 0.0 in
  let slot = { entry; seq; cls; live = true } in
  Heap.push ~seq t.classes.(cls) key slot;
  Hashtbl.replace t.index task.Task.id slot;
  t.n_live.(cls) <- t.n_live.(cls) + 1

let retire t slot =
  slot.live <- false;
  t.n_live.(slot.cls) <- t.n_live.(slot.cls) - 1;
  Hashtbl.remove t.index (entry_task slot.entry).Task.id

(* a resumed task was already in flight: let it finish ahead of fresh
   work of the same class *)
let enqueue_ready t entry =
  push t ~front:(match entry with Resumed _ -> true | Fresh _ -> false) entry;
  t.n_ready <- t.n_ready + 1

(* Submit a fresh task.  If it is gated on an unoccurred avoided event it
   is parked; otherwise it becomes ready. *)
let submit t task =
  t.submitted <- t.submitted + 1;
  match task.Task.gate with
  | Some ev when not (Event.occurred ev) ->
      let parked = Option.value ~default:[] (Hashtbl.find_opt t.gated ev.Event.id) in
      Hashtbl.replace t.gated ev.Event.id (task :: parked);
      t.n_gated <- t.n_gated + 1
  | _ -> enqueue_ready t (Fresh task)

(* A previously blocked task becomes runnable again. *)
let resume t task k = enqueue_ready t (Resumed (task, k))

(* An event occurred: release tasks gated on it. *)
let on_event t (ev : Event.t) =
  match Hashtbl.find_opt t.gated ev.Event.id with
  | None -> ()
  | Some parked ->
      Hashtbl.remove t.gated ev.Event.id;
      t.n_gated <- t.n_gated - List.length parked;
      (* parked lists are built by consing; reverse to preserve
         submission order *)
      List.iter
        (fun (task : Task.t) ->
          if Evlog.enabled () then
            Evlog.emit (Evlog.Gate_release { ev = ev.Event.id; task = task.Task.id });
          enqueue_ready t (Fresh task))
        (List.rev parked)

(* Move the pending task [task_id] to the front of its class queue: a
   blocked task is waiting for it (paper §2.3.4). *)
let prefer t task_id =
  match Hashtbl.find_opt t.index task_id with
  | None -> ()
  | Some slot ->
      retire t slot;
      push t ~front:true slot.entry

let rec pop_live h =
  match Heap.pop h with
  | Some (_, slot) when slot.live -> slot
  | Some _ -> pop_live h
  | None -> invalid_arg "Supervisor.pick: class count out of step with its heap"

(* The [idx]-th live slot in queue (seq) order. *)
let nth_live h idx =
  let live = ref [] in
  Heap.iter (fun slot -> if slot.live then live := slot :: !live) h;
  List.nth (List.sort (fun a b -> compare a.seq b.seq) !live) idx

(* Select the next entry to run from the highest-priority non-empty
   class: its heap minimum, i.e. the largest size hint first in the
   code-generation classes and queue order elsewhere. *)
let pick t =
  let rec scan i =
    if i >= Task.n_classes then None
    else if t.n_live.(i) = 0 then scan (i + 1)
    else begin
      let slot =
        match t.perturb with
        | Some rng when t.n_live.(i) > 1 -> nth_live t.classes.(i) (Prng.int rng t.n_live.(i))
        | _ -> pop_live t.classes.(i)
      in
      retire t slot;
      t.n_ready <- t.n_ready - 1;
      Some slot.entry
    end
  in
  scan 0

(* Names of events whose gated tasks are still parked — used in deadlock
   diagnostics. *)
let gated_events t =
  Hashtbl.fold (fun id tasks acc -> (id, List.map (fun (t : Task.t) -> t.name) tasks) :: acc) t.gated []
