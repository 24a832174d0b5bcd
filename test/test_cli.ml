(* The m2c binary end to end: every malformed option exits nonzero and
   names the offending value on stderr, the help text of m2c and of
   each subcommand renders without a cmdliner error, and compile's view
   flags are honoured (or warned about) on both engines. *)

let m2c = "../bin/m2c.exe"

(* exit code and combined stdout+stderr of one m2c run *)
let run args =
  let out = Filename.temp_file "m2c" ".out" in
  let code = Sys.command (Filename.quote_command m2c args ~stdout:out ~stderr:out) in
  let text = In_channel.with_open_text out In_channel.input_all in
  Sys.remove out;
  (code, text)

(* (arguments, text the complaint must contain) *)
let malformed =
  [
    ([ "compile"; "--synth"; "1"; "--procs"; "0" ], "processor count 0");
    ([ "compile"; "--synth"; "1"; "--strategy"; "eager" ], "\"eager\"");
    ([ "compile"; "--synth"; "1"; "--heading"; "2" ], "alternative 2");
    ([ "compile"; "--synth"; "1"; "--inject"; "bogus" ], "\"bogus\"");
    ([ "serve"; "--clients"; "0" ], "count 0");
    ([ "farm"; "--synth"; "1"; "--nodes"; "0" ], "count 0");
    ([ "farm"; "--synth"; "1"; "--net"; "nonsense" ], "\"nonsense\"");
    ([ "compile"; "--synth"; "99" ], "--synth 99");
  ]

let test_malformed (args, needle) () =
  let code, text = run args in
  if code = 0 then Alcotest.failf "m2c %s exited 0" (String.concat " " args);
  if not (Tutil.contains ~sub:needle text) then
    Alcotest.failf "m2c %s: %S not in the complaint:\n%s" (String.concat " " args) needle text

let subcommands =
  [ ""; "compile"; "build"; "run"; "sweep"; "analyze"; "profile"; "check"; "serve"; "farm"; "trace"; "zoo" ]

let test_help cmd () =
  let args = (if cmd = "" then [] else [ cmd ]) @ [ "--help=plain" ] in
  let code, text = run args in
  Alcotest.(check int) "exit code" 0 code;
  if Tutil.contains ~sub:"cmdliner error" text then Alcotest.failf "m2c %s --help=plain:\n%s" cmd text

(* (arguments, texts the output must contain) *)
let views =
  [
    ( "domains --stats",
      [ "compile"; "--synth"; "1"; "--domains"; "2"; "--stats" ],
      [ "compiled on 2 domains"; "Simple Identifier" ] );
    ( "domains --watch --dump-tasks",
      [ "compile"; "--synth"; "1"; "--domains"; "2"; "--watch"; "--dump-tasks" ],
      [ "--watch only applies to the simulator"; "--dump-tasks only applies to the simulator" ] );
    ("watch", [ "compile"; "--synth"; "1"; "--procs"; "2"; "--watch" ], [ "P1 |"; "utilization" ]);
  ]

let test_view (_, args, needles) () =
  let code, text = run args in
  Alcotest.(check int) "exit code" 0 code;
  List.iter
    (fun needle ->
      if not (Tutil.contains ~sub:needle text) then
        Alcotest.failf "m2c %s: %S not in the output:\n%s" (String.concat " " args) needle text)
    needles

let () =
  Alcotest.run "cli"
    [
      ( "malformed",
        List.map
          (fun ((args, _) as case) ->
            (* named by the offending option and value *)
            let name = String.concat " " (List.filteri (fun i _ -> i >= List.length args - 2) args) in
            Alcotest.test_case name `Quick (test_malformed case))
          malformed );
      ( "help",
        List.map
          (fun cmd -> Alcotest.test_case (if cmd = "" then "m2c" else cmd) `Quick (test_help cmd))
          subcommands );
      ( "compile views",
        List.map (fun ((name, _, _) as case) -> Alcotest.test_case name `Quick (test_view case)) views
      );
    ]
