(** A minimal deterministic JSON builder and syntax checker.

    The profile, trace and bench exporters need (a) byte-stable
    output — two runs with the same seed/config must serialize
    identically, so field order is the construction order and float
    formatting is fixed — and (b) a way for the CLI / bench / CI to
    assert that what they wrote is well-formed without adding a
    dependency the container doesn't have.
    {!validate} is a complete JSON {e syntax} validator, not a schema
    language; schema-level checks (required fields, sum invariants)
    live with the producers. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(** Serialize compactly (no whitespace).  Object fields print in
    construction order; integral floats print without a fraction, the
    rest with six decimals — total and deterministic. *)
val to_string : t -> string

(** Check that [s] is one well-formed JSON value with nothing trailing.
    On failure, reports the byte offset and what was expected. *)
val validate : string -> (unit, string) result
