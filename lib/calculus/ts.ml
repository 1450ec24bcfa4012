(* The ts / ots functions (Section 4).

   [ts env ~at e] maps expression [e], at instant [at], relative to the
   window R carried by [env], to a signed integer: positive iff [e] is
   active, with magnitude the activation timestamp when active and the
   evaluation instant (or a negated component timestamp) when not.

   Both semantic styles of the paper are implemented: [Logical] is the
   case-analysis definition, [Algebraic] the closed form built from min/max
   and the sign function [u].  They agree on every expression and instant
   (property-tested), which is the paper's point: boolean laws such as
   De Morgan hold for ts values, not just for activation. *)

open Chimera_util
open Chimera_event
module Obs = Chimera_obs.Obs

(* Top-level evaluation entries are counted and timed (recursive descent
   is not: one observation per probe, not per node). *)
let c_evals = Obs.Metrics.counter "ts.evals"
let h_eval = Obs.Metrics.histogram "ts.eval_ns"

type style = Logical | Algebraic

type env = { eb : Event_base.t; window : Window.t; style : style }

let env ?(style = Logical) eb ~window = { eb; window; style }
let window t = t.window
let event_base t = t.eb
let with_window t ~window = { t with window }

let u v = if v > 0 then 1 else -1

let prim_ts t ~at p =
  match Event_base.last_of_type t.eb ~etype:p ~window:t.window ~at with
  | Some stamp -> Time.to_int stamp
  | None -> -Time.to_int at

let prim_ots t ~at p oid =
  match Event_base.last_of_type_on t.eb ~etype:p ~oid ~window:t.window ~at with
  | Some stamp -> Time.to_int stamp
  | None -> -Time.to_int at

(* Logical-style ots (Section 4.3). *)
let rec ots_logical t ~at ie oid =
  match ie with
  | Expr.I_prim p -> prim_ots t ~at p oid
  | Expr.I_not e -> -ots_logical t ~at e oid
  | Expr.I_and (a, b) ->
      let va = ots_logical t ~at a oid and vb = ots_logical t ~at b oid in
      if va > 0 && vb > 0 then max va vb else min va vb
  | Expr.I_or (a, b) ->
      let va = ots_logical t ~at a oid and vb = ots_logical t ~at b oid in
      if va > 0 || vb > 0 then max va vb else min va vb
  | Expr.I_seq (a, b) ->
      let vb = ots_logical t ~at b oid in
      if vb > 0 && ots_logical t ~at:(Time.of_int vb) a oid > 0 then vb
      else -Time.to_int at

(* Algebraic-style ots: the same function expressed through u-coefficients,
   mirroring the paper's closed forms. *)
let rec ots_algebraic t ~at ie oid =
  match ie with
  | Expr.I_prim p -> prim_ots t ~at p oid
  | Expr.I_not e -> -ots_algebraic t ~at e oid
  | Expr.I_and (a, b) ->
      let va = ots_algebraic t ~at a oid and vb = ots_algebraic t ~at b oid in
      let both = (1 + u va) * (1 + u vb) / 4 in
      (max va vb * both) + (min va vb * (1 - both))
  | Expr.I_or (a, b) ->
      let va = ots_algebraic t ~at a oid and vb = ots_algebraic t ~at b oid in
      let neither = (1 - u va) * (1 - u vb) / 4 in
      (min va vb * neither) + (max va vb * (1 - neither))
  | Expr.I_seq (a, b) ->
      let vb = ots_algebraic t ~at b oid in
      let probe = if vb > 0 then Time.of_int vb else at in
      let va_at_b = ots_algebraic t ~at:probe a oid in
      let q = (1 + u vb) * (1 + u va_at_b) / 4 in
      (vb * q) - (Time.to_int at * (1 - q))

let ots t ~at ie oid =
  match t.style with
  | Logical -> ots_logical t ~at ie oid
  | Algebraic -> ots_algebraic t ~at ie oid

(* Instance-to-set lifting (Section 4.3): an instance expression used at
   the set level is active iff some object activates it — except a
   top-level instance negation, which is active iff *no* object has the
   negated event active (min-lift); on primitives this makes -=A coincide
   with -A exactly, as the paper states. *)
let lift t ~at ie =
  let oids = Event_base.oids_in t.eb ~window:t.window ~at in
  match ie with
  | Expr.I_not _ -> (
      match oids with
      | [] -> Time.to_int at
      | o :: os ->
          List.fold_left
            (fun acc oid -> min acc (ots t ~at ie oid))
            (ots t ~at ie o) os)
  | Expr.I_prim _ | Expr.I_and _ | Expr.I_or _ | Expr.I_seq _ -> (
      match oids with
      | [] -> -Time.to_int at
      | o :: os ->
          List.fold_left
            (fun acc oid -> max acc (ots t ~at ie oid))
            (ots t ~at ie o) os)

(* The set-level evaluators answer every [Inst] node through [lift]: the
   specification's fold above, or a caller's incremental equivalent. *)
let rec ts_logical t ~lift ~at e =
  match e with
  | Expr.Prim p -> prim_ts t ~at p
  | Expr.Not e -> -ts_logical t ~lift ~at e
  | Expr.And (a, b) ->
      let va = ts_logical t ~lift ~at a and vb = ts_logical t ~lift ~at b in
      if va > 0 && vb > 0 then max va vb else min va vb
  | Expr.Or (a, b) ->
      let va = ts_logical t ~lift ~at a and vb = ts_logical t ~lift ~at b in
      if va > 0 || vb > 0 then max va vb else min va vb
  | Expr.Seq (a, b) ->
      let vb = ts_logical t ~lift ~at b in
      if vb > 0 && ts_logical t ~lift ~at:(Time.of_int vb) a > 0 then vb
      else -Time.to_int at
  | Expr.Inst ie -> lift t ~at ie

let rec ts_algebraic t ~lift ~at e =
  match e with
  | Expr.Prim p -> prim_ts t ~at p
  | Expr.Not e -> -ts_algebraic t ~lift ~at e
  | Expr.And (a, b) ->
      let va = ts_algebraic t ~lift ~at a
      and vb = ts_algebraic t ~lift ~at b in
      let both = (1 + u va) * (1 + u vb) / 4 in
      (max va vb * both) + (min va vb * (1 - both))
  | Expr.Or (a, b) ->
      let va = ts_algebraic t ~lift ~at a
      and vb = ts_algebraic t ~lift ~at b in
      let neither = (1 - u va) * (1 - u vb) / 4 in
      (min va vb * neither) + (max va vb * (1 - neither))
  | Expr.Seq (a, b) ->
      let vb = ts_algebraic t ~lift ~at b in
      let probe = if vb > 0 then Time.of_int vb else at in
      let va_at_b = ts_algebraic t ~lift ~at:probe a in
      let q = (1 + u vb) * (1 + u va_at_b) / 4 in
      (vb * q) - (Time.to_int at * (1 - q))
  | Expr.Inst ie -> lift t ~at ie

let eval t ~lift ~at e =
  match t.style with
  | Logical -> ts_logical t ~lift ~at e
  | Algebraic -> ts_algebraic t ~lift ~at e

(* A primitive evaluation is ~150ns, so the disabled path must stay a
   single load-and-branch ahead of the untouched pre-obs code. *)
let ts_with ~lift t ~at e =
  if Obs.enabled () then begin
    Obs.Metrics.incr c_evals;
    let t0 = Obs.start_timer () in
    let v = eval t ~lift ~at e in
    Obs.observe_since h_eval t0;
    v
  end
  else eval t ~lift ~at e

let ts t ~at e = ts_with ~lift t ~at e

let active t ~at e = ts t ~at e > 0
let active_on t ~at ie oid = ots t ~at ie oid > 0

let activation t ~at e =
  let v = ts t ~at e in
  if v > 0 then Some (Time.of_int v) else None

(* Existential activation over an interval (the triggering semantics of
   Section 4.4 quantifies over dense time).  The sign of ts only changes at
   event instants, so probing the window's lower bound, each event instant
   in range, and [upto] is exact. *)
let exists_active t ~upto e =
  let after = Window.after t.window in
  if Time.( < ) upto after then None
  else begin
    let scan_window =
      Window.make ~after ~upto:(Time.min upto (Window.upto t.window))
    in
    let candidates =
      after :: Event_base.timestamps_in t.eb ~window:scan_window @ [ upto ]
    in
    List.find_opt (fun at -> active t ~at e) candidates
  end

(* Objects bound by the [occurred] event formula (Section 3.3): those for
   which the instance expression is active at [at].  The default candidate
   set is the objects affected within the window; [candidates] lets callers
   widen it (a negation can hold for objects untouched by any event). *)
let occurred_objects ?candidates t ~at ie =
  let candidates =
    match candidates with
    | Some oids -> oids
    | None -> Event_base.oids_in t.eb ~window:t.window ~at
  in
  List.filter (fun oid -> ots t ~at ie oid > 0) candidates

(* Instants bound by the [at] event formula: every instant in the window at
   which the expression arises for [oid], i.e. event instants [tau] where
   the activation timestamp equals [tau] itself.  Negations "occur" at
   probe instants continuously and are therefore reported only when they
   stamp an enclosing composite at an event instant, matching the paper's
   reading that [at] enumerates occurrences. *)
let occurrence_instants t ~at ie oid =
  let prims = Event_type.Set.elements (Expr.primitives_inst ie) in
  let stamps =
    List.concat_map
      (fun etype ->
        Event_base.timestamps_of_type_on t.eb ~etype ~oid ~window:t.window ~at)
      prims
  in
  let stamps = List.sort_uniq Time.compare stamps in
  List.filter (fun tau -> ots t ~at:tau ie oid = Time.to_int tau) stamps

(* Convenience for the Fig. 5 reproduction: sample ts over given instants. *)
let series t e ~instants = List.map (fun at -> (at, ts t ~at e)) instants
