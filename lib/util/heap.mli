(** Binary min-heap with deterministic tie-breaking.

    Entries are ordered by (key, seq).  The discrete-event simulation
    keys its agenda on (virtual time, insertion sequence number), so
    simultaneous events pop in insertion order — the property that makes
    simulated schedules bit-for-bit reproducible.  A caller may supply
    the tie-break [seq] itself (the Supervisor's ready queues do). *)

type 'a t

(** [create dummy] is an empty heap ([dummy] fills unused slots). *)
val create : 'a -> 'a t

val length : 'a t -> int
val is_empty : 'a t -> bool

(** [push t key v] inserts [v] with priority [key].  Equal keys pop in
    ascending [seq]; without [~seq], [seq] is an insertion counter
    starting at 0, so equal keys preserve insertion order. *)
val push : ?seq:int -> 'a t -> float -> 'a -> unit

(** The minimum entry, without removing it. *)
val peek : 'a t -> (float * 'a) option

(** Remove and return the minimum entry. *)
val pop : 'a t -> (float * 'a) option

(** Apply [f] to every stored value, in no particular order. *)
val iter : ('a -> unit) -> 'a t -> unit
