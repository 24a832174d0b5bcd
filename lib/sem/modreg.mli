(** The module registry — the paper's "once-only table" (§3): module
    name to definition-module scope, guaranteeing each interface is
    processed exactly once no matter how many modules import it. *)

type t

val create : unit -> t

(** [intern t name] returns the interface's scope and whether this call
    created it; the creator is responsible for spawning (or, in the
    sequential compiler, immediately running) its processing.
    [on_create] runs under the registry lock when this call creates the
    scope, before any other caller can find it. *)
val intern : ?on_create:(unit -> unit) -> t -> string -> Symtab.t * bool

val find : t -> string -> Symtab.t option
val count : t -> int

(** Registered names, sorted. *)
val names : t -> string list

(** All (name, scope) pairs, sorted by name — for harvesting completed
    interfaces into the build cache after a compilation. *)
val to_list : t -> (string * Symtab.t) list
