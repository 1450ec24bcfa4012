(* Event-base persistence: the codec and its file variants. *)

open Core

let roundtrip =
  Gen.qcheck ~count:200 "codec roundtrip preserves ts everywhere"
    (Gen.arb_history_and_expr Gen.Full)
    (fun (h, e) ->
      let eb = Gen.build_event_base h in
      match Event_codec.of_string (Event_codec.to_string eb) with
      | Error msg -> QCheck.Test.fail_reportf "decode: %s" msg
      | Ok eb' ->
          let probe eb =
            let at = Event_base.probe_now eb in
            let env = Ts.env eb ~window:(Window.all ~upto:at) in
            List.map (fun at -> Ts.ts env ~at e) (Gen.probe_instants eb)
          in
          Event_base.size eb = Event_base.size eb' && probe eb = probe eb')

let test_codec_errors () =
  let cases =
    [
      ("", "header");
      ("# wrong header\n", "header");
      ("# chimera-event-base v1\ngarbage", "fields");
      ("# chimera-event-base v1\n1\tcreate(stock)\tx\t2", "numbers");
      (* timestamp going backwards *)
      ( "# chimera-event-base v1\n\
         1\tcreate(stock)\t1\t4\n\
         2\tcreate(stock)\t1\t2",
        "increasing" );
      (* odd (probe) instant *)
      ("# chimera-event-base v1\n1\tcreate(stock)\t1\t3", "instant");
    ]
  in
  List.iter
    (fun (text, needle) ->
      match Event_codec.of_string text with
      | Ok _ -> Alcotest.failf "expected failure for %S" text
      | Error msg ->
          Alcotest.(check bool)
            (Printf.sprintf "%S mentions %s" msg needle)
            true
            (Astring_contains.contains msg needle))
    cases

let test_file_roundtrip () =
  let eb = Gen.build_event_base [ (0, 0); (1, 1); (2, 0) ] in
  let path = Filename.temp_file "chimera" ".events" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      (match Event_codec.write_file eb ~path with
      | Ok () -> ()
      | Error msg -> Alcotest.fail msg);
      match Event_codec.read_file path with
      | Ok eb' -> Alcotest.(check int) "size" 3 (Event_base.size eb')
      | Error msg -> Alcotest.fail msg)

(* The file variants report I/O failures as [Error] carrying the path —
   never a raised [Sys_error]. *)
let test_file_io_errors () =
  let missing = Filename.concat (Filename.get_temp_dir_name ()) "chimera-definitely-absent.events" in
  (match Event_codec.read_file missing with
  | Ok _ -> Alcotest.fail "reading a missing file succeeded"
  | Error msg ->
      Alcotest.(check bool) "read error mentions the path" true
        (Astring_contains.contains msg missing));
  let unwritable = "/nonexistent-dir/chimera.events" in
  match Event_codec.write_file (Gen.build_event_base [ (0, 0) ]) ~path:unwritable with
  | Ok () -> Alcotest.fail "writing into a missing directory succeeded"
  | Error msg ->
      Alcotest.(check bool) "write error mentions the path" true
        (Astring_contains.contains msg unwritable)

let suite =
  [
    roundtrip;
    Alcotest.test_case "codec error reporting" `Quick test_codec_errors;
    Alcotest.test_case "file roundtrip" `Quick test_file_roundtrip;
    Alcotest.test_case "file I/O errors are results" `Quick
      test_file_io_errors;
  ]
