(* The benchmark's own invariants: seeded streams, open-loop timing from
   the due time, and the percentile rule its reports use. *)

open Chimera_benchmark
open Core

let frames (w : Workload.t) ~seed =
  String.concat ""
    (List.concat_map
       (fun (t : Workload.txn) -> Array.to_list (Array.map Workload.frame t.ops))
       (Array.to_list (Workload.stream w ~seed ~count:40)))

let test_seeded_streams () =
  List.iter
    (fun (w : Workload.t) ->
      let a = frames w ~seed:7 and b = frames w ~seed:7 and c = frames w ~seed:8 in
      Alcotest.(check bool) (w.name ^ ": same seed, same bytes") true (String.equal a b);
      Alcotest.(check bool) (w.name ^ ": other seed, other bytes") false (String.equal a c))
    Workload.all

(* A one-connection open loop against a server played by the test on the
   other end of a socket pair, under a hand-stepped clock: five requests
   due 10 ms apart, and a server that answers nothing until 100 ms.  Each
   latency runs from its request's due time, so the stall is charged to
   every request queued behind it. *)
let test_open_loop_due_time () =
  let now = ref 0 in
  Drive.clock := (fun () -> !now);
  Fun.protect ~finally:(fun () -> Drive.clock := Monotime.now_ns) @@ fun () ->
  let client, server = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> Unix.close server) @@ fun () ->
  let d = Drive.of_fds [| client |] in
  Fun.protect ~finally:(fun () -> Drive.close d) @@ fun () ->
  let ms = 1_000_000 in
  let reqs =
    Array.init 5 (fun i ->
        let r = Drive.control ~conn:0 (Protocol.Ping (string_of_int i)) in
        r.due <- i * 10 * ms;
        r)
  in
  let inbox = Buffer.create 256 and answered = ref 0 and chunk = Bytes.create 4096 in
  let turn () =
    now := !now + (5 * ms);
    (match Unix.select [ server ] [] [] 0. with
    | [], _, _ -> ()
    | _ -> Buffer.add_subbytes inbox chunk 0 (Unix.read server chunk 0 (Bytes.length chunk)));
    let received = Buffer.length inbox / (Protocol.header_bytes + 6) in
    if !now >= 100 * ms then
      while !answered < received do
        let reply = Protocol.frame_exn ~max_frame:Workload.max_frame "OK pong" in
        ignore (Unix.write_substring server reply 0 (String.length reply));
        incr answered
      done
  in
  ignore (Drive.open_loop ~turn d ~deadline_ns:(1000 * ms) reqs);
  Array.iteri
    (fun i (r : Drive.req) ->
      Alcotest.(check int)
        (Printf.sprintf "request %d: latency from its due time" i)
        ((100 - (10 * i)) * ms)
        (r.recv - r.due))
    reqs

let test_tail_percentiles () =
  let samples n = Array.init n (fun i -> n - i) in
  let t = Stats.tail ~want:99. (samples 1000) in
  Alcotest.(check (float 1e-9)) "1000 samples support p99" 99. t.pct;
  Alcotest.(check int) "p99 leaves ten beyond" 990 t.value;
  Alcotest.(check int) "sample count" 1000 t.samples;
  let t = Stats.tail ~want:99. (samples 500) in
  Alcotest.(check (float 1e-9)) "500 samples: highest with ten beyond" 98. t.pct;
  Alcotest.(check int) "p98 of 1..500" 490 t.value;
  Alcotest.(check int) "1234 samples: p99 rank" 1222 (Stats.tail ~want:99. (samples 1234)).value;
  let t = Stats.tail ~want:99.5 (samples 1234) in
  Alcotest.(check int) "p99.5 falls back to exactly ten beyond" (1234 - 10) t.value;
  let t = Stats.tail ~want:99. (samples 5) in
  Alcotest.(check (float 1e-9)) "too few samples: the median" 50. t.pct;
  Alcotest.(check int) "median of 1..5" 3 t.value;
  Alcotest.(check int) "p50 of 1..10" 5 (Stats.tail ~want:50. (samples 10)).value

(* The spread rule is checked against Python's statistics.quantiles(n=4). *)
let test_quartiles () =
  let q1, q3 = Stats.quartiles [| 1.; 2.; 3.; 4.; 5.; 6.; 7.; 8.; 9.; 10. |] in
  Alcotest.(check (float 1e-9)) "q1" 2.75 q1;
  Alcotest.(check (float 1e-9)) "q3" 8.25 q3;
  let q1, q3 = Stats.quartiles [| 5.; 1.; 4. |] in
  Alcotest.(check (float 1e-9)) "q1 of three" 1. q1;
  Alcotest.(check (float 1e-9)) "q3 of three" 5. q3

let () =
  Alcotest.run "benchmark"
    [
      ( "benchmark",
        [
          Alcotest.test_case "seeded streams" `Quick test_seeded_streams;
          Alcotest.test_case "open-loop latency from the due time" `Quick
            test_open_loop_due_time;
          Alcotest.test_case "tail percentiles" `Quick test_tail_percentiles;
          Alcotest.test_case "quartiles" `Quick test_quartiles;
        ] );
    ]
