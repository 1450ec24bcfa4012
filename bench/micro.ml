(* Bechamel micro-benchmarks: one Test.make per experiment family, with
   OLS-estimated per-run times.  These complement the wall-clock tables of
   the other modules with statistically analyzed single-operation costs. *)

open Core
open Bechamel
open Toolkit

let make_ts_tests () =
  let prng = Prng.create ~seed:11 in
  let alphabet = Domain.abstract_alphabet 8 in
  let stream = Expr_gen.stream prng ~alphabet ~objects:64 ~length:10_000 in
  let eb = Bench_util.replay_stream stream in
  let at = Event_base.probe_now eb in
  let env = Ts.env eb ~window:(Window.all ~upto:at) in
  let env_alg = Ts.env ~style:Ts.Algebraic eb ~window:(Window.all ~upto:at) in
  let prim = Expr.prim (List.hd alphabet) in
  let boolean =
    Expr_gen.gen prng ~profile:Expr_gen.boolean_profile ~alphabet ~depth:4 ()
  in
  let inst =
    Expr.Inst
      (Expr.i_seq (Expr.I_prim (List.nth alphabet 0)) (Expr.I_prim (List.nth alphabet 1)))
  in
  [
    Test.make ~name:"e1/ts-primitive" (Staged.stage (fun () -> Ts.ts env ~at prim));
    Test.make ~name:"e1/ts-boolean-d4"
      (Staged.stage (fun () -> Ts.ts env ~at boolean));
    Test.make ~name:"e1/ts-boolean-d4-algebraic"
      (Staged.stage (fun () -> Ts.ts env_alg ~at boolean));
    Test.make ~name:"e4/ts-instance-lifted"
      (Staged.stage (fun () -> Ts.ts env ~at inst));
  ]

let make_optimizer_tests () =
  let prng = Prng.create ~seed:12 in
  let alphabet = Domain.abstract_alphabet 8 in
  let expr =
    Expr_gen.gen prng ~profile:Expr_gen.full_profile ~alphabet ~depth:5 ()
  in
  let relevance = Relevance.of_expr expr in
  let occurrence = List.hd alphabet in
  [
    Test.make ~name:"e2/derive-V(E)"
      (Staged.stage (fun () -> Simplify.v_of_expr expr));
    Test.make ~name:"e2/relevance-check"
      (Staged.stage (fun () -> Relevance.relevant relevance ~occurrence));
  ]

let make_baseline_tests () =
  let prng = Prng.create ~seed:13 in
  let alphabet = Domain.abstract_alphabet 8 in
  let expr =
    Expr_gen.gen prng ~profile:Expr_gen.regular_profile ~alphabet ~depth:4 ()
  in
  let tree = Tree_detector.create expr in
  let auto = Automaton.create expr in
  let clock = Core.Time.Clock.create () in
  let etype = List.hd alphabet in
  [
    Test.make ~name:"e3/tree-update"
      (Staged.stage (fun () ->
           Tree_detector.on_event tree ~etype
             ~timestamp:(Core.Time.Clock.next_event_instant clock)));
    Test.make ~name:"e3/automaton-step"
      (Staged.stage (fun () -> Automaton.on_event auto ~etype));
  ]

let make_parse_tests () =
  let src =
    "modify(show.quantity) + -(create(stockOrder) < \
     modify(stockOrder.delquantity)) , (modify(stock.minquantity) < \
     modify(stock.quantity))"
  in
  [
    Test.make ~name:"misc/parse-paper-expression"
      (Staged.stage (fun () -> Expr_parse.parse_exn src));
  ]

let run () =
  Bench_util.print_header "Micro-benchmarks (Bechamel, OLS estimates)";
  let tests =
    make_ts_tests () @ make_optimizer_tests () @ make_baseline_tests ()
    @ make_parse_tests ()
  in
  let grouped = Test.make_grouped ~name:"micro" tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~kde:None
      ~stabilize:true ()
  in
  let raw = Benchmark.all cfg instances grouped in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let table =
    Pretty.table ~title:"estimated time per run"
      ~header:[ "benchmark"; "ns/run"; "r^2" ]
      ~aligns:[ Pretty.Left; Pretty.Right; Pretty.Right ]
      ()
  in
  let rows = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results [] in
  List.iter
    (fun (name, ols) ->
      let est =
        match Analyze.OLS.estimates ols with
        | Some (e :: _) -> Pretty.ns_cell e
        | _ -> "n/a"
      in
      let r2 =
        match Analyze.OLS.r_square ols with
        | Some r -> Printf.sprintf "%.4f" r
        | None -> "n/a"
      in
      Pretty.add_row table [ name; est; r2 ])
    (List.sort (fun (a, _) (b, _) -> String.compare a b) rows);
  Pretty.print table
