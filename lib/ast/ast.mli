(** Abstract syntax for Modula-2+.

    The concurrent compiler never materializes a whole-module AST: the
    parser analyzes declarations inline (entering symbols directly into
    the stream's scope) and builds trees only for statement parts, whose
    semantic analysis is deferred to the statement-analyzer/code-
    generator task (paper §3).  These types are the {e interface}
    between the parser and the two analysis tasks. *)

open Mcc_m2

type ident = { name : string; iloc : Loc.t }

(** [M.x] or [x]. *)
type qualident = { prefix : ident option; id : ident }

val qual_to_string : qualident -> string

(** {1 Expressions} *)

type binop =
  | Add | Sub | Mul
  | Divide  (** [/]: real division or set symmetric difference *)
  | Div | Mod
  | And | Or
  | Eq | Neq | Lt | Le | Gt | Ge
  | In  (** set membership *)

type unop = Neg | Pos | Not

type expr = { e : expr_node; eloc : Loc.t }

and expr_node =
  | EInt of int
  | EReal of float
  | EChar of char
  | EStr of string
  | EName of qualident
  | EField of expr * ident  (** [designator.field] — also how [M.x] parses *)
  | EIndex of expr * expr list  (** [designator\[e1, e2, ...\]] *)
  | EDeref of expr  (** [designator^] *)
  | ECall of expr * expr list
  | EBin of binop * expr * expr
  | EUn of unop * expr
  | ESet of qualident option * set_elem list  (** [{..}] or [T{..}] *)

and set_elem = SetOne of expr | SetRange of expr * expr

(** {1 Type expressions} *)

type type_expr =
  | TName of qualident
  | TEnum of ident list
  | TSubrange of expr * expr
  | TArray of type_expr list * type_expr  (** [ARRAY ix1, ix2 OF elem] *)
  | TRecord of field_section list
  | TPointer of type_expr * Loc.t  (** location kept for forward-reference fixups *)
  | TSet of type_expr
  | TProcType of formal_type list * qualident option

and field_section =
  | FFields of { f_names : ident list; f_type : type_expr }
  | FVariant of {
      v_tag : ident option;
      v_tag_type : qualident;
      v_arms : (set_elem list * field_section list) list;
      v_else : field_section list;
    }  (** [CASE \[tag :\] TagType OF labels : fields | ... \[ELSE fields\] END] *)

(** PIM formal types: [\[VAR\] \[ARRAY OF\] qualident]. *)
and formal_type = { ft_var : bool; ft_open : bool; ft_name : qualident }

(** {1 Statements} *)

type stmt = { s : stmt_node; sloc : Loc.t }

and stmt_node =
  | SAssign of expr * expr
  | SCall of expr
  | SIf of (expr * stmt list) list * stmt list  (** IF/ELSIF branches, ELSE *)
  | SCase of expr * case_arm list * stmt list option
  | SWhile of expr * stmt list
  | SRepeat of stmt list * expr
  | SLoop of stmt list
  | SFor of ident * expr * expr * expr option * stmt list  (** FOR i := a TO b BY c *)
  | SWith of expr * stmt list
  | SExit
  | SReturn of expr option
  | SRaise of expr  (** Modula-2+ *)
  | STry of stmt list * (qualident * stmt list) list * stmt list
      (** TRY body EXCEPT handlers FINALLY finalizer END (empty lists when absent) *)
  | SLock of expr * stmt list  (** Modula-2+ *)
  | SEmpty

and case_arm = { labels : set_elem list; arm_body : stmt list }

(** {1 Declarations} *)

type param_section = { p_var : bool; p_names : ident list; p_type : formal_type }

type proc_heading = {
  h_name : ident;
  h_params : param_section list;
  h_result : qualident option;
}

type decl = DConst of ident * expr | DType of ident * type_expr | DVar of ident list * type_expr

type import = ImportModules of ident list | ImportFrom of ident * ident list

(** {1 Size and equality} *)

(** Statement-tree size: drives the long-before-short ordering of
    code-generation tasks (paper §2.3.4). *)
val stmt_size : stmt -> int

val seq_size : stmt list -> int

(** Structural equality modulo source locations (the parse-print-reparse
    round-trip property). *)
val equal_ident : ident -> ident -> bool

val equal_qualident : qualident -> qualident -> bool
val equal_expr : expr -> expr -> bool
val equal_set_elem : set_elem -> set_elem -> bool
val equal_stmt : stmt -> stmt -> bool
val equal_body : stmt list -> stmt list -> bool
