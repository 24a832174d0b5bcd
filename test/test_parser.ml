(* Tests for syntax analysis and inline declaration analysis, driven
   through the sequential compiler (which exercises the same parser code
   the concurrent streams run). *)

open Tutil
open Mcc_core

let ok_src ?defs src =
  let r = compile_seq ?defs src in
  if not r.Seq_driver.ok then
    Alcotest.failf "expected clean parse, got:\n%s"
      (String.concat "\n" (diag_strings r.Seq_driver.diags))

let test_empty_module () = ok_src "IMPLEMENTATION MODULE T;\nEND T.\n"

let test_program_module_keyword () =
  (* plain MODULE (program module) is accepted *)
  ok_src "MODULE T;\nBEGIN\nEND T.\n"

let test_all_decl_forms () =
  ok_src
    (modsrc
       ~decls:
         {|CONST a = 1; b = a + 2; ch = "x"; r = 1.5; s = {1,2};
TYPE Color = (red, green, blue);
TYPE Small = [0..9];
TYPE Arr = ARRAY [0..3], [0..2] OF INTEGER;
TYPE Rec = RECORD x, y: INTEGER; c: Color END;
TYPE P = POINTER TO Rec;
TYPE S = SET OF Small;
TYPE F = PROCEDURE (INTEGER, VAR CHAR): BOOLEAN;
VAR v1, v2: INTEGER; v3: Rec; v4: P;
PROCEDURE Id(x: INTEGER): INTEGER;
BEGIN RETURN x END Id;|}
       ~body:"v1 := Id(3)" ())

let test_all_stmt_forms () =
  ok_src
    (modsrc
       ~decls:
         {|VAR i, j: INTEGER; b: BOOLEAN; s: BITSET; e: EXCEPTION; mu: MUTEX;
VAR r: RECORD f: INTEGER END;
PROCEDURE P; BEGIN END P;|}
       ~body:
         {|i := 1;
P;
P();
IF i > 0 THEN j := 1 ELSIF i < 0 THEN j := 2 ELSE j := 3 END;
CASE i OF 0: j := 0 | 1, 2: j := 1 | 3..5: j := 2 ELSE j := 9 END;
WHILE i < 10 DO INC(i) END;
REPEAT DEC(i) UNTIL i = 0;
LOOP EXIT END;
FOR i := 0 TO 10 BY 2 DO j := j + i END;
WITH r DO f := 1 END;
s := {1, 3..5};
TRY
  RAISE e;
EXCEPT e:
  j := 1;
FINALLY
  j := 2;
END;
LOCK mu DO j := 3 END;
RETURN|}
       ())

let test_nested_procedures () =
  ok_src
    (modsrc
       ~decls:
         {|PROCEDURE Outer(x: INTEGER): INTEGER;
  PROCEDURE Inner(y: INTEGER): INTEGER;
  BEGIN RETURN y * 2 END Inner;
BEGIN RETURN Inner(x) + 1 END Outer;|}
       ~body:"" ())

let test_forward_pointer () =
  ok_src
    (modsrc
       ~decls:
         {|TYPE List = POINTER TO Node;
TYPE Node = RECORD value: INTEGER; next: List END;
VAR head: List;|}
       ~body:"NEW(head); head^.value := 1; head^.next := NIL" ())

(* --- syntax errors: reported, recovered, deterministic --- *)

let test_missing_semi () =
  expect_error (modsrc ~decls:"VAR x: INTEGER;" ~body:"x := 1 x := 2" ()) "expected ';'"

let test_wrong_end_name () =
  expect_error "IMPLEMENTATION MODULE T;\nEND Wrong.\n" "ends with name"

let test_unclosed_if () =
  expect_error (modsrc ~decls:"VAR x: INTEGER;" ~body:"IF TRUE THEN x := 1" ()) "expected"

let test_error_recovery_continues () =
  (* both errors are reported despite the first one *)
  let r = compile_seq (modsrc ~decls:"VAR x: INTEGER;" ~body:"x := ; x := yy" ()) in
  Alcotest.(check bool) "has errors" false r.Seq_driver.ok;
  Alcotest.(check bool) "multiple diagnostics" true (List.length r.Seq_driver.diags >= 2)

let test_duplicate_declaration () =
  expect_error (modsrc ~decls:"VAR x: INTEGER; x: CHAR;" ~body:"" ()) "already declared"

(* A procedure declared twice yields two units with one key: every
   driver reports exactly the declaration diagnostic, never a link or
   merge failure, and all three link the same program. *)
let test_duplicate_procedure () =
  let src =
    modsrc ~decls:"PROCEDURE p;\nBEGIN\nEND p;\nPROCEDURE p;\nBEGIN WriteInt(1)\nEND p;" ~body:"p" ()
  in
  let st = store ~name:"T" src in
  let seq = Seq_driver.compile st in
  let des = Driver.compile st in
  let dom = Driver.compile_domains ~domains:2 st in
  let expected = [ "T.mod:6:11: error: p is already declared in this scope" ] in
  Alcotest.(check (list string)) "seq diagnostics" expected (diag_strings seq.Seq_driver.diags);
  Alcotest.(check (list string)) "DES diagnostics" expected (diag_strings des.Driver.diags);
  Alcotest.(check (list string)) "domain diagnostics" expected (diag_strings dom.Driver.d_diags);
  Alcotest.(check string) "DES program" (dis seq.Seq_driver.program) (dis des.Driver.program);
  Alcotest.(check string) "domain program" (dis seq.Seq_driver.program) (dis dom.Driver.d_program)

(* QCHECK_SEED=530245490: two procedures recovered as <error> yield two
   units T.<error>. *)
let test_soup_duplicate_error_units () =
  let src =
    "IMPLEMENTATION MODULE T;\n\
     FROM THEN id4 id2 .. id4 id0 id2 id1 PROCEDURE := 85 id4 WHILE 3 } 0 id4 id3 7 8 id2 : 0 4 \
     id4 id1 0 CONST 16 id3 id0 CASE id2 id2 id1 5 id4 \"str\" . id2 id1 id2 id1 RETURN 2 44 71 \
     id3 ^ PROCEDURE 7 16 id1 id4 CASE 4 id0 id0 id2 id1 ( 34 id2 1 EXCEPT 72 VAR id1 3 7 id4 id2 \
     7 id1 9 id0 END 9 id2 2 7 id4 id2 TRY .. id2 2 id1 1 'c' id4 CASE 6 ) OF 8\n\
     END T.\n"
  in
  let r = compile_seq src in
  Alcotest.(check bool) "has errors" false r.Seq_driver.ok

let test_builtin_redeclaration () =
  expect_error (modsrc ~decls:"VAR INTEGER: CHAR;" ~body:"" ()) "builtin"

let test_opaque_only_in_def () =
  expect_error (modsrc ~decls:"TYPE Hidden;" ~body:"" ()) "definition module"

let test_imports () =
  let defs =
    [
      ( "Lib",
        "DEFINITION MODULE Lib;\nCONST k = 7;\nTYPE T = RECORD a: INTEGER END;\nVAR v: INTEGER;\nPROCEDURE f(x: INTEGER): INTEGER;\nEND Lib.\n"
      );
    ]
  in
  ok_src ~defs
    (modsrc ~imports:"IMPORT Lib;\nFROM Lib IMPORT k;"
       ~decls:"CONST m = k + Lib.k;\nVAR r: Lib.T;"
       ~body:"Lib.v := m; r.a := Lib.v" ())

let test_missing_import () =
  expect_error (modsrc ~imports:"IMPORT NoSuch;" ~decls:"" ~body:"" ()) "cannot find interface"

let test_not_exported () =
  let defs = [ ("Lib", "DEFINITION MODULE Lib;\nCONST k = 1;\nEND Lib.\n") ] in
  let r = compile_seq ~defs (modsrc ~imports:"FROM Lib IMPORT nope;" ~decls:"" ~body:"" ()) in
  Alcotest.(check bool) "error" false r.Seq_driver.ok

let test_def_impl_signature_mismatch () =
  let defs = [ ("T", "DEFINITION MODULE T;\nPROCEDURE f(x: INTEGER): INTEGER;\nEND T.\n") ] in
  expect_error ~defs
    "IMPLEMENTATION MODULE T;\nPROCEDURE f(x: CHAR): INTEGER;\nBEGIN RETURN 1 END f;\nEND T.\n"
    "does not match"

let test_def_impl_signature_match () =
  let defs = [ ("T", "DEFINITION MODULE T;\nPROCEDURE f(x: INTEGER): INTEGER;\nEND T.\n") ] in
  ok_src ~defs
    "IMPLEMENTATION MODULE T;\nPROCEDURE f(x: INTEGER): INTEGER;\nBEGIN RETURN x END f;\nEND T.\n"

(* statement-tree size metric drives long/short classification *)
let test_stmt_size () =
  let open Mcc_ast.Ast in
  let loc = Mcc_m2.Loc.none in
  let assign = { s = SAssign ({ e = EInt 1; eloc = loc }, { e = EInt 2; eloc = loc }); sloc = loc } in
  Alcotest.(check int) "single" 1 (stmt_size assign);
  let loop = { s = SLoop [ assign; assign ]; sloc = loc } in
  Alcotest.(check int) "nested" 3 (stmt_size loop)

(* Robustness: the parser must terminate without raising on arbitrary
   token soup (panic-mode recovery always makes progress). *)
let garbage_token_gen =
  QCheck.Gen.(
    let tok =
      oneof
        [
          map (fun n -> Printf.sprintf "%d" (abs n)) small_int;
          map (fun n -> Printf.sprintf "id%d" (abs n mod 5)) small_int;
          oneofl
            [ "BEGIN"; "END"; "IF"; "THEN"; "ELSE"; "PROCEDURE"; "VAR"; "CONST"; "TYPE";
              "RECORD"; "ARRAY"; "OF"; "WHILE"; "DO"; "CASE"; "LOOP"; "RETURN"; "IMPORT";
              "FROM"; "TRY"; "EXCEPT"; ":="; ";"; ":"; ","; "("; ")"; "["; "]"; "^"; "|";
              ".."; "."; "+"; "*"; "#"; "{"; "}"; "\"str\""; "'c'"; "3.14"; "0FFH" ]
        ]
    in
    map (String.concat " ") (list_size (int_bound 120) tok))

let prop_parser_never_raises =
  QCheck.Test.make ~name:"parser survives arbitrary token soup" ~count:300 ~max_gen:3000
    (QCheck.make garbage_token_gen)
    (fun soup ->
      let src = "IMPLEMENTATION MODULE T;\n" ^ soup ^ "\nEND T.\n" in
      match compile_seq src with
      | (_ : Mcc_core.Seq_driver.result) -> true
      | exception e -> QCheck.Test.fail_reportf "parser raised %s on:\n%s" (Printexc.to_string e) src)

let () =
  Alcotest.run "parser"
    [
      ( "accepts",
        [
          Alcotest.test_case "empty module" `Quick test_empty_module;
          Alcotest.test_case "program module" `Quick test_program_module_keyword;
          Alcotest.test_case "all declaration forms" `Quick test_all_decl_forms;
          Alcotest.test_case "all statement forms" `Quick test_all_stmt_forms;
          Alcotest.test_case "nested procedures" `Quick test_nested_procedures;
          Alcotest.test_case "forward pointer" `Quick test_forward_pointer;
          Alcotest.test_case "imports" `Quick test_imports;
          Alcotest.test_case "def/impl match" `Quick test_def_impl_signature_match;
        ] );
      ( "rejects",
        [
          Alcotest.test_case "missing semicolon" `Quick test_missing_semi;
          Alcotest.test_case "wrong end name" `Quick test_wrong_end_name;
          Alcotest.test_case "unclosed if" `Quick test_unclosed_if;
          Alcotest.test_case "recovery continues" `Quick test_error_recovery_continues;
          Alcotest.test_case "duplicate declaration" `Quick test_duplicate_declaration;
          Alcotest.test_case "duplicate procedure" `Quick test_duplicate_procedure;
          Alcotest.test_case "builtin redeclaration" `Quick test_builtin_redeclaration;
          Alcotest.test_case "opaque outside def" `Quick test_opaque_only_in_def;
          Alcotest.test_case "missing import" `Quick test_missing_import;
          Alcotest.test_case "not exported" `Quick test_not_exported;
          Alcotest.test_case "def/impl mismatch" `Quick test_def_impl_signature_mismatch;
        ] );
      ("ast", [ Alcotest.test_case "stmt size" `Quick test_stmt_size ]);
      ( "robustness",
        [
          Tutil.qtest prop_parser_never_raises;
          Alcotest.test_case "soup with two <error> procedures" `Quick
            test_soup_duplicate_error_units;
        ] );
    ]
