(* A calibration loop that tracks how fast the host runs right now.

   On a shared host the same pass can take 1.0 s in one phase and 1.8 s
   in the next, and a whole run can sit in a slow phase, so raw host
   times of identical work spread by 15-30% between runs.  Between timed
   calls the benchmark runs a fixed loop for a twentieth of their duration
   and counts its iterations.  The loop does what the
   compiler spends its time on (string hashing, hash-table inserts,
   polymorphic compare, short-lived allocation) and depends on nothing in
   the compiler; the minor heap is emptied first so that no collection of
   the compiler's data falls inside it.  Host time divided by the loop's
   time per iteration ([cal] units), taken over the same moments, moves
   with the compiler's speed and hardly with the host's.  Loops that do
   not allocate (dependent reads over a 4 MB or a 64 MB table) tracked
   the host far worse. *)

let entries = 200
let iters = ref 0
let ns = ref 0.0

let iteration () =
  let h = Hashtbl.create 16 in
  for i = 0 to entries - 1 do
    Hashtbl.replace h (string_of_int (i * 7919 mod 200_003)) [ i ]
  done;
  let a = Array.init entries (fun i -> i * 7919 mod 200_003) in
  Array.sort compare a;
  ignore (Sys.opaque_identity (h, a))

let slice budget =
  let t0 = Monotonic_clock.now () in
  let n = ref 0 in
  while Int64.sub (Monotonic_clock.now ()) t0 < budget do
    iteration ();
    incr n
  done;
  let dt = Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) in
  iters := !iters + !n;
  ns := !ns +. dt;
  dt /. float_of_int (max 1 !n)

(* Calibration time owed: a twentieth of every timed call.  It is paid
   in slices of at least [min_slice_ns], so that short calls do not make
   slices of one or two iterations, whose first iteration, run with the
   compiler's data in the caches, would weigh too much. *)
let owed = ref 0.0
let min_slice_ns = 2e6

let run ~after_ns =
  owed := !owed +. (after_ns /. 20.0);
  if !owed >= min_slice_ns then begin
    let budget = Int64.of_float !owed in
    owed := 0.0;
    Gc.minor ();
    ignore (slice budget)
  end

(* Host ns of one iteration, over every calibration slice so far. *)
let ns_per_iter () = if !iters = 0 then nan else !ns /. float_of_int !iters

(* Host ns expressed in iterations of the loop. *)
let to_cal host_ns = host_ns /. ns_per_iter ()

(* The host ns of some work that has just ended, scaled to a host on which
   one iteration takes 80 us (about its time on a 2-vCPU Xeon VM) by a
   20 ms slice run right away.  For work too short to be calibrated by the
   slices between timed calls. *)
let nominal_ns host_ns =
  Gc.minor ();
  host_ns /. slice 20_000_000L *. 80_000.0
