(* E3: composite-event detection — Chimera's ts calculus (with and without
   the V(E) filter) against the related-work baselines: the Snoop-style
   incremental operator tree and the Ode-style lazily compiled automaton.

   All detectors observe the same stream and the same expression set, and
   follow the full rule lifecycle: when an expression activates, it is
   "considered" and its events consumed (calculus: the window restarts;
   tree/automaton: state reset), then detection continues.  The detections
   column is a cross-detector sanity check — consuming semantics is
   identical across all four, so the counts must agree. *)

open Core

type detector = {
  name : string;
  feed : Event_type.t -> Ident.Oid.t -> unit;
  detections : unit -> int;
}

let calculus_detector ~filtered exprs =
  let eb = Event_base.create () in
  let n = List.length exprs in
  let consumption = Array.make n Time.origin in
  let detections = ref 0 in
  let relevances = Array.of_list (List.map Relevance.of_expr exprs) in
  let exprs = Array.of_list exprs in
  let feed etype oid =
    ignore (Event_base.record eb ~etype ~oid);
    let at = Event_base.probe_now eb in
    Array.iteri
      (fun i e ->
        let relevant =
          (not filtered)
          || Relevance.relevant relevances.(i) ~occurrence:etype
        in
        if relevant then begin
          let env =
            Ts.env eb ~window:(Window.make ~after:consumption.(i) ~upto:at)
          in
          if Ts.active env ~at e then begin
            incr detections;
            consumption.(i) <- at
          end
        end)
      exprs
  in
  {
    name = (if filtered then "chimera ts + V(E)" else "chimera ts (no filter)");
    feed;
    detections = (fun () -> !detections);
  }

(* The tree needs real timestamps; wrap with a local clock. *)
let tree_detector exprs =
  let trees = Array.of_list (List.map Tree_detector.create exprs) in
  let clock = Time.Clock.create () in
  let detections = ref 0 in
  {
    name = "snoop-style tree";
    feed =
      (fun etype _oid ->
        let stamp = Time.Clock.next_event_instant clock in
        Array.iter
          (fun t ->
            Tree_detector.on_event t ~etype ~timestamp:stamp;
            if Tree_detector.active t then begin
              incr detections;
              Tree_detector.reset t
            end)
          trees);
    detections = (fun () -> !detections);
  }

let automaton_detector exprs =
  let autos = Array.of_list (List.map Automaton.create exprs) in
  let detections = ref 0 in
  {
    name = "ode-style automaton";
    feed =
      (fun etype _oid ->
        Array.iter
          (fun a ->
            Automaton.on_event a ~etype;
            if Automaton.active a then begin
              incr detections;
              Automaton.reset a
            end)
          autos);
    detections = (fun () -> !detections);
  }

let run_workload ~title ~profile ~depth () =
  let prng = Prng.create ~seed:(Bench_util.seed_of_experiment "e3") in
  let alphabet = Domain.abstract_alphabet 12 in
  let exprs = Expr_gen.batch prng ~profile ~alphabet ~depth ~count:32 () in
  let stream = Expr_gen.stream prng ~alphabet ~objects:64 ~length:20_000 in
  let table =
    Pretty.table ~title
      ~header:[ "detector"; "ns/event (32 exprs)"; "events/s"; "detections" ]
      ~aligns:[ Pretty.Left; Pretty.Right; Pretty.Right; Pretty.Right ]
      ()
  in
  let detectors =
    [
      (fun () -> calculus_detector ~filtered:false exprs);
      (fun () -> calculus_detector ~filtered:true exprs);
      (fun () -> tree_detector exprs);
      (fun () -> automaton_detector exprs);
    ]
  in
  List.iter
    (fun mk ->
      let d = mk () in
      let elapsed, () =
        Bench_util.time_once_ns (fun () ->
            List.iter (fun (etype, oid) -> d.feed etype oid) stream)
      in
      let per_event = elapsed /. float_of_int (List.length stream) in
      Pretty.add_row table
        [
          d.name;
          Pretty.ns_cell per_event;
          Printf.sprintf "%.0f" (1e9 /. per_event);
          string_of_int (d.detections ());
        ])
    detectors;
  Pretty.print table

(* Instance-oriented fragment: the calculus' lifted evaluation — the
   specification's fold over every object at every probe, and the
   engine's incremental lift state ({!Lift}) — against the per-object
   incremental tree.  Consume-on-detection restarts each detector, so the
   three detection counts must agree; [run_instance_workload] reports
   whether they did. *)
let run_instance_workload () =
  let prng = Prng.create ~seed:1303 in
  let alphabet = Domain.abstract_alphabet 6 in
  let a = List.nth alphabet 0 and b = List.nth alphabet 1 in
  let exprs =
    [
      Expr.i_conj (Expr.I_prim a) (Expr.I_prim b);
      Expr.i_seq (Expr.I_prim a) (Expr.I_prim b);
      Expr.i_disj
        (Expr.i_seq (Expr.I_prim a) (Expr.I_prim b))
        (Expr.I_prim (List.nth alphabet 2));
    ]
  in
  let table =
    Pretty.table
      ~title:"instance-oriented detection (3 exprs, 10k events, 256 objects)"
      ~header:[ "detector"; "ns/event"; "events/s"; "detections" ]
      ~aligns:[ Pretty.Left; Pretty.Right; Pretty.Right; Pretty.Right ]
      ()
  in
  let stream = Expr_gen.stream prng ~alphabet ~objects:256 ~length:10_000 in
  (* Calculus: evaluate the lifted ts after each event, consuming on
     activation — through [probe], which is [Ts.ts] (recompute) or the
     incremental state. *)
  let calculus name probe () =
    let eb = Event_base.create () in
    let consumption = Array.make (List.length exprs) Time.origin in
    let detections = ref 0 in
    let probes =
      Array.of_list (List.map (fun ie -> probe (Expr.Inst ie)) exprs)
    in
    let feed etype oid =
      ignore (Event_base.record eb ~etype ~oid);
      let at = Event_base.probe_now eb in
      Array.iteri
        (fun i probe ->
          let env =
            Ts.env eb ~window:(Window.make ~after:consumption.(i) ~upto:at)
          in
          if probe env ~at > 0 then begin
            incr detections;
            consumption.(i) <- at
          end)
        probes
    in
    (name, feed, fun () -> !detections)
  in
  let recompute =
    calculus "chimera ts (recompute lift)" (fun e env ~at -> Ts.ts env ~at e)
  in
  let incremental =
    calculus "chimera ts (incremental lift)" (fun e ->
        let state = Lift.create e in
        fun env ~at -> Lift.ts state env ~at)
  in
  let inst_tree () =
    let detectors = Array.of_list (List.map Inst_tree_detector.create exprs) in
    let clock = Time.Clock.create () in
    let detections = ref 0 in
    let feed etype oid =
      let stamp = Time.Clock.next_event_instant clock in
      Array.iter
        (fun d ->
          Inst_tree_detector.on_event d ~etype ~oid ~timestamp:stamp;
          if Inst_tree_detector.active d then begin
            incr detections;
            Inst_tree_detector.reset d
          end)
        detectors
    in
    ("per-object tree", feed, fun () -> !detections)
  in
  let counts =
    List.map
      (fun mk ->
        let name, feed, detections = mk () in
        let elapsed, () =
          Bench_util.time_once_ns (fun () ->
              List.iter (fun (etype, oid) -> feed etype oid) stream)
        in
        let per_event = elapsed /. float_of_int (List.length stream) in
        Pretty.add_row table
          [
            name;
            Pretty.ns_cell per_event;
            Printf.sprintf "%.0f" (1e9 /. per_event);
            string_of_int (detections ());
          ];
        detections ())
      [ recompute; incremental; inst_tree ]
  in
  Pretty.print table;
  match counts with
  | n :: rest when List.for_all (( = ) n) rest -> true
  | _ ->
      Printf.printf "instance fragment: detection counts disagree (%s)\n"
        (String.concat " / " (List.map string_of_int counts));
      false

let e3 () =
  Bench_util.print_header
    "E3: detection cost - calculus vs related-work baselines (Section 2)";
  Bench_util.print_note
    "Negation- and instance-free expressions (the fragment every baseline\n\
     supports); 32 expressions monitored over one 20k-event stream, with\n\
     consume-on-detection (the detections column must agree).";
  run_workload ~title:"sequence-heavy expressions (depth 3, precedence-biased)"
    ~profile:Expr_gen.sequence_profile ~depth:3 ();
  run_workload ~title:"mixed boolean expressions (depth 4)"
    ~profile:Expr_gen.regular_profile ~depth:4 ();
  if not (run_instance_workload ()) then exit 1

let all () = e3 ()
