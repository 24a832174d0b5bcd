(** Code units and linked programs.

    A unit is the code for one procedure (or the module body, the entry
    unit); the merge task accumulates units as streams finish and
    [finish] links.  Unit keys come from scope paths ("M", "M.P",
    "M.P.Q"), so program assembly — and hence compiler output — is
    independent of the order streams completed (paper §2.1: merging is
    concatenation, in any order). *)

type t = {
  u_key : string;
  u_nparams : int;
  u_nslots : int;  (** params + locals + compiler temporaries *)
  u_locals : (int * Tydesc.t) list;  (** slot -> default-shape descriptor *)
  u_code : Instr.t array;
}

type program = {
  p_entry : string;  (** the main module's body unit *)
  p_init : string list;
      (** module body units in initialization order (imported modules
          before their importers; [p_entry] last) *)
  p_units : (string, t) Hashtbl.t;
  p_frames : (string * (int * Tydesc.t) list * int) list;
      (** global frames: key, slot descriptors, size — sorted by key *)
}

(** Unit keys, sorted. *)
val unit_keys : program -> string list

val find_unit : program -> string -> t option

(** Link units into a program.  [init] defaults to [[entry]].  Of two
    units with one key (a procedure declared twice, already reported),
    the one with the smaller disassembly is kept, whatever the arrival
    order. *)
val link :
  ?init:string list ->
  entry:string ->
  frames:(string * (int * Tydesc.t) list * int) list ->
  t list ->
  program

(** Canonical disassembly — used to compare compiler outputs across
    schedules, strategies and engines. *)
val disassemble_unit : t -> string

val disassemble : program -> string
val total_instrs : program -> int

(** {1 The merge accumulator driven by the Merge task} *)

type merger

val merger : unit -> merger

(** Concatenate one finished unit (charges merge work). *)
val add_unit : merger -> t -> unit

(** Register a module global frame's layout. *)
val add_frame : merger -> string -> (int * Tydesc.t) list -> int -> unit

val unit_count : merger -> int

(** Link everything accumulated. *)
val finish : merger -> entry:string -> program
