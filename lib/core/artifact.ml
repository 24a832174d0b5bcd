(* Self-contained interface artifacts.

   The paper's once-only table (§2.1) guarantees each definition module
   is processed once *per compilation*; an artifact extends that economy
   *across* compilations.  It packages everything a def-module stream
   produces — the completed scope's exported symbols (types embedded
   structurally), the interface's global frame layout, the diagnostics
   its analysis emitted, and the direct imports its importer would have
   discovered — keyed by a content fingerprint (Build_cache).

   Installation replays exactly the externally visible effects of the
   skipped Lexor/Importer/DefParse stream: the imports are ensured (so
   transitively reached interfaces register and contribute their frames,
   as they would cold), the symbols are re-entered, the frame is merged,
   the diagnostics are replayed, and the scope's completion event — the
   interface's avoided event — is signaled.  Explicit Costs charges keep
   warm DES timings honest.

   Artifacts are deeply immutable after capture: def-module scopes are
   never patched once complete (opaque-pointer fixups resolve before
   [Symtab.mark_complete]; procedure entries in interfaces carry no
   stream), and [Symtab.entries] filters placeholders, so an artifact
   contains no events, mutexes or closures and is Marshal-safe. *)

open Mcc_m2
open Mcc_sched
open Mcc_sem
open Mcc_codegen

type frame = {
  f_key : string;
  f_slots : (int * Tydesc.t) list;
  f_size : int;
}

type t = {
  a_name : string;
  a_fingerprint : string; (* content fingerprint, hex (Build_cache) *)
  a_imports : string list; (* direct imports, in source order *)
  a_symbols : Symbol.t list; (* exported entries, (offset, name)-sorted *)
  a_slices : (string * string) list; (* exported name -> slice digest, name-sorted *)
  a_install : string; (* stable digest over imports + frame + diags *)
  a_shape : string; (* stable whole-interface digest: install + slices *)
  a_frame : frame;
  a_diags : Diag.d list; (* diagnostics of the interface's analysis, sorted *)
  a_digest : string; (* MD5 over the payload fields above, set at capture *)
}

(* ------------------------------------------------------------------ *)
(* Slice digests.

   One *slice* is one exported declaration; its digest must be equal
   across compilations exactly when the declaration's interface is
   unchanged.  Type uids are process-local (recompiling the same source
   allocates fresh ones), so the rendering is purely structural — names,
   shapes, bounds, field slots — never uids.  Named-pointer recursion is
   broken by name, which is sound under Modula-2 name equivalence: two
   interface types with the same name in the same module are the same
   declaration. *)

let rec render_ty seen buf (ty : Types.ty) =
  let p s = Buffer.add_string buf s in
  match ty with
  | Types.TInt -> p "INTEGER"
  | Types.TCard -> p "CARDINAL"
  | Types.TBool -> p "BOOLEAN"
  | Types.TChar -> p "CHAR"
  | Types.TReal -> p "REAL"
  | Types.TBitset -> p "BITSET"
  | Types.TStrLit n -> p (Printf.sprintf "STR%d" n)
  | Types.TNil -> p "NIL"
  | Types.TExc -> p "EXCEPTION"
  | Types.TMutex -> p "MUTEX"
  | Types.TErr -> p "<err>"
  | Types.TEnum e ->
      p (Printf.sprintf "enum:%s(%s)" e.Types.ename
           (String.concat "," (Array.to_list e.Types.elems)))
  | Types.TSub (b, lo, hi) ->
      p (Printf.sprintf "sub[%d..%d]:" lo hi);
      render_ty seen buf b
  | Types.TArr a ->
      p (Printf.sprintf "arr[%d..%d," a.Types.lo a.Types.hi);
      render_ty seen buf a.Types.index;
      p "]:";
      render_ty seen buf a.Types.elem
  | Types.TOpenArr e ->
      p "openarr:";
      render_ty seen buf e
  | Types.TRec r ->
      p (Printf.sprintf "rec:%s{" r.Types.rname);
      List.iter
        (fun (fname, (f : Types.field)) ->
          p (Printf.sprintf "%s@%d:" fname f.Types.fslot);
          render_ty seen buf f.Types.fty;
          p ";")
        r.Types.fields;
      p "}"
  | Types.TPtr pt ->
      if List.mem pt.Types.pname !seen then p (Printf.sprintf "^%s" pt.Types.pname)
      else begin
        seen := pt.Types.pname :: !seen;
        p (Printf.sprintf "ptr:%s->" pt.Types.pname);
        render_ty seen buf pt.Types.target
      end
  | Types.TSet s ->
      p (Printf.sprintf "set[%d..%d]:" s.Types.slo s.Types.shi);
      render_ty seen buf s.Types.sbase
  | Types.TProc sg -> render_signature seen buf sg

and render_signature seen buf (sg : Types.signature) =
  Buffer.add_string buf "proc(";
  List.iter
    (fun (prm : Types.param) ->
      if prm.Types.mode_var then Buffer.add_string buf "VAR ";
      render_ty seen buf prm.Types.pty;
      Buffer.add_char buf ';')
    sg.Types.params;
  Buffer.add_char buf ')';
  match sg.Types.result with
  | None -> ()
  | Some r ->
      Buffer.add_char buf ':';
      render_ty seen buf r

let render_home buf = function
  | Symbol.HGlobal (key, slot) -> Buffer.add_string buf (Printf.sprintf "global(%s,%d)" key slot)
  | Symbol.HLocal slot -> Buffer.add_string buf (Printf.sprintf "local(%d)" slot)
  | Symbol.HParam (slot, by_ref) -> Buffer.add_string buf (Printf.sprintf "param(%d,%b)" slot by_ref)

let slice_digest (s : Symbol.t) : string =
  let buf = Buffer.create 128 in
  let seen = ref [] in
  Buffer.add_string buf s.Symbol.sname;
  Buffer.add_char buf '|';
  (match s.Symbol.alias_of with
  | Some m -> Buffer.add_string buf ("alias:" ^ m ^ "|")
  | None -> ());
  (match s.Symbol.skind with
  | Symbol.SConst (v, ty) ->
      Buffer.add_string buf ("const|" ^ Value.to_string v ^ "|");
      render_ty seen buf ty
  | Symbol.SType ty ->
      Buffer.add_string buf "type|";
      render_ty seen buf ty
  | Symbol.SVar (home, ty) ->
      Buffer.add_string buf "var|";
      render_home buf home;
      Buffer.add_char buf '|';
      render_ty seen buf ty
  | Symbol.SProc pi ->
      Buffer.add_string buf
        (Printf.sprintf "proc|%s|%b|" pi.Symbol.key pi.Symbol.external_);
      render_signature seen buf pi.Symbol.sig_
  | Symbol.SEnumLit (ty, ord) ->
      Buffer.add_string buf (Printf.sprintf "enumlit|%d|" ord);
      render_ty seen buf ty
  | Symbol.SModule m -> Buffer.add_string buf ("module|" ^ m)
  | Symbol.SBuiltin _ -> Buffer.add_string buf "builtin"
  | Symbol.SPlaceholder _ -> Buffer.add_string buf "placeholder");
  Digest.to_hex (Digest.string (Buffer.contents buf))

let slices_of symbols =
  List.sort compare (List.map (fun s -> (s.Symbol.sname, slice_digest s)) symbols)

(* [a_install]: what installing the artifact does to a compilation
   regardless of which names are looked up — the imports it ensures, the
   global frame it merges, the diagnostics it replays.  Tydesc values and
   diagnostics contain no uids, so Marshal over them is stable. *)
let install_digest ~imports ~frame ~diags =
  Digest.to_hex (Digest.string (Marshal.to_string (imports, frame, diags) []))

(* [a_shape]: the early-cutoff comparison — a regenerated interface with
   an identical shape is byte-identical for every downstream purpose, so
   invalidation propagation stops at it. *)
let shape_digest ~install ~slices =
  Digest.to_hex
    (Digest.string
       (String.concat ";" (install :: List.map (fun (n, d) -> n ^ "=" ^ d) slices)))

let slice t name = List.assoc_opt name t.a_slices

(* Digest of everything but [a_digest] itself.  Artifacts are
   Marshal-safe and deeply immutable, so the serialized payload is a
   stable byte string: recomputing after an on-disk round trip (or after
   bit-rot / truncation) either reproduces the captured digest or proves
   corruption. *)
let payload_digest ~name ~fingerprint ~imports ~symbols ~slices ~install ~shape ~frame ~diags =
  Digest.string
    (Marshal.to_string (name, fingerprint, imports, symbols, slices, install, shape, frame, diags) [])

let digest t =
  payload_digest ~name:t.a_name ~fingerprint:t.a_fingerprint ~imports:t.a_imports
    ~symbols:t.a_symbols ~slices:t.a_slices ~install:t.a_install ~shape:t.a_shape
    ~frame:t.a_frame ~diags:t.a_diags

let verify t = String.equal t.a_digest (digest t)

let capture ~name ~fingerprint ~imports ~scope ~frame ~diags =
  let symbols = Symtab.export scope in
  let slices = slices_of symbols in
  let install = install_digest ~imports ~frame ~diags in
  let shape = shape_digest ~install ~slices in
  {
    a_name = name;
    a_fingerprint = fingerprint;
    a_imports = imports;
    a_symbols = symbols;
    a_slices = slices;
    a_install = install;
    a_shape = shape;
    a_frame = frame;
    a_diags = diags;
    a_digest =
      payload_digest ~name ~fingerprint ~imports ~symbols ~slices ~install ~shape ~frame ~diags;
  }

(* Re-install into a freshly interned scope.  The caller has already
   ensured [a_imports]; this charges the install work, re-enters the
   symbols, merges the frame, replays the diagnostics and completes the
   scope (signaling the avoided event). *)
let install t ~scope ~merger ~diags =
  Eff.work
    ((List.length t.a_symbols * Costs.cache_install_entry) + Costs.cache_install_frame);
  Symtab.import_export scope t.a_symbols;
  Cunit.add_frame merger t.a_frame.f_key t.a_frame.f_slots t.a_frame.f_size;
  List.iter (Diag.add_d diags) t.a_diags;
  Symtab.mark_complete scope

(* ------------------------------------------------------------------ *)
(* Uid census, for on-disk persistence.

   Unmarshalled types carry uids allocated by the process that wrote
   them; the loader bumps this process's counter past the maximum so
   fresh types can never collide (uid equality is name equivalence).
   Pointer targets can form cycles, so visited uid-nodes are tracked. *)

let rec ty_uids f seen acc (ty : Types.ty) =
  let node uid children =
    if Hashtbl.mem seen uid then acc
    else begin
      Hashtbl.replace seen uid ();
      List.fold_left (ty_uids f seen) (f uid acc) children
    end
  in
  match ty with
  | Types.TEnum e -> node e.Types.euid []
  | Types.TSub (b, _, _) -> ty_uids f seen acc b
  | Types.TArr a -> node a.Types.auid [ a.Types.index; a.Types.elem ]
  | Types.TOpenArr e -> ty_uids f seen acc e
  | Types.TRec r -> node r.Types.ruid (List.map (fun (_, f) -> f.Types.fty) r.Types.fields)
  | Types.TPtr p -> node p.Types.puid [ p.Types.target ]
  | Types.TSet s -> node s.Types.suid [ s.Types.sbase ]
  | Types.TProc sg -> signature_uids f seen acc sg
  | _ -> acc

and signature_uids f seen acc (sg : Types.signature) =
  let acc = List.fold_left (fun acc p -> ty_uids f seen acc p.Types.pty) acc sg.Types.params in
  match sg.Types.result with Some r -> ty_uids f seen acc r | None -> acc

(* Fold [f] over every distinct type uid reachable from the symbols. *)
let fold_uids f init t =
  let seen = Hashtbl.create 64 in
  List.fold_left
    (fun acc (s : Symbol.t) ->
      match s.Symbol.skind with
      | Symbol.SConst (_, ty)
      | Symbol.SType ty
      | Symbol.SVar (_, ty)
      | Symbol.SEnumLit (ty, _) ->
          ty_uids f seen acc ty
      | Symbol.SProc pi -> signature_uids f seen acc pi.Symbol.sig_
      | Symbol.SModule _ | Symbol.SBuiltin _ | Symbol.SPlaceholder _ -> acc)
    init t.a_symbols

let max_uid t = fold_uids max 0 t

(* Uids come from a process-wide counter, and Marshal writes larger
   integers in more bytes, so the raw marshaled size of an artifact
   depends on how many types the process allocated before it.  The
   wire size counts every uid as 0 instead. *)
let wire_size t =
  let uids = Array.of_list (fold_uids List.cons [] t) in
  let size v = String.length (Marshal.to_string v []) in
  size t - size uids + size (Array.make (Array.length uids) 0)
