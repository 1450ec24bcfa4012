(* ECA rule definitions and their runtime status (the Rule Table entries of
   Section 5: triggered flag, last-consideration and last-consumption
   timestamps, plus the statically derived relevance filter V(E)). *)

open Chimera_util
open Chimera_event
open Chimera_calculus
open Chimera_optimizer

type coupling = Immediate | Deferred
type consumption = Consuming | Preserving

type spec = {
  name : string;
  target : string option;  (** targeted rules restrict events to a class *)
  event : Expr.set;
  condition : Condition.t;
  action : Action.t;
  coupling : coupling;
  consumption : consumption;
  priority : int;  (** higher is considered first *)
}

type t = {
  spec : spec;
  relevance : Relevance.t;
  seqno : int;  (** definition order; ties in priority break on it *)
  mutable triggered : bool;
  mutable last_consideration : Time.t;
  mutable last_consumption : Time.t;
  mutable scan_from : Time.t;
      (** exact detection: instants at or before this were already probed *)
  mutable last_recomputation : Time.t;
      (** endpoint detection: when ts was last recomputed *)
  mutable last_sign_positive : bool;
  mutable wake_pending : bool;
      (** already enqueued in the dirty-rule set of the indexed wake
          (see {!Trigger_support.Wake}); dedups marking in O(1) *)
}

let spec t = t.spec
let name t = t.spec.name
let relevance t = t.relevance
let priority t = t.spec.priority

(* A targeted rule may only mention events of its target class
   (Section 2). *)
let validate_target spec =
  match spec.target with
  | None -> Ok ()
  | Some class_name ->
      let offending =
        Event_type.Set.filter
          (fun p -> not (String.equal (Event_type.class_name p) class_name))
          (Expr.primitives spec.event)
      in
      if Event_type.Set.is_empty offending then Ok ()
      else
        Error
          (`Rule_error
            (Printf.sprintf
               "rule %s is targeted to %s but mentions events on other \
                classes (%s)"
               spec.name class_name
               (String.concat ", "
                  (List.map Event_type.to_string
                     (Event_type.Set.elements offending)))))

let make ~seqno ~tx_start spec =
  match validate_target spec with
  | Error _ as e -> e
  | Ok () ->
      Ok
        {
          spec;
          relevance = Relevance.of_expr spec.event;
          seqno;
          triggered = false;
          last_consideration = tx_start;
          last_consumption = tx_start;
          scan_from = tx_start;
          last_recomputation = Time.origin;
          last_sign_positive = false;
          wake_pending = false;
        }

(* Two distinct windows (the paper keeps them orthogonal):

   - Triggering (Section 4.4) always ranges over the occurrences more
     recent than the last consideration — "events occurred before the
     consideration loose the capability of triggering the rule",
     whatever the consumption mode.
   - Event formulas in the condition (Section 3.3) observe an interval
     governed by the consumption mode: since the last consideration for
     consuming rules, since the transaction start for preserving ones. *)

let trigger_window_start t = t.last_consideration

let formula_window_start t ~tx_start =
  match t.spec.consumption with
  | Consuming -> t.last_consumption
  | Preserving -> tx_start

let detrigger t ~at =
  t.triggered <- false;
  t.last_consideration <- at;
  (match t.spec.consumption with
  | Consuming -> t.last_consumption <- at
  | Preserving -> ());
  t.scan_from <- at;
  t.last_recomputation <- Time.origin;
  t.last_sign_positive <- false

let reset t ~tx_start =
  t.triggered <- false;
  t.last_consideration <- tx_start;
  t.last_consumption <- tx_start;
  t.scan_from <- tx_start;
  t.last_recomputation <- Time.origin;
  t.last_sign_positive <- false

let coupling_name = function Immediate -> "immediate" | Deferred -> "deferred"

let consumption_name = function
  | Consuming -> "consuming"
  | Preserving -> "preserving"

let pp_spec ppf spec =
  Fmt.pf ppf "@[<v2>define %s trigger %s%a@,events: %a@,condition: %a@,actions: %a@,%s, priority %d@]"
    (coupling_name spec.coupling) spec.name
    Fmt.(option (fun ppf c -> Fmt.pf ppf " for %s" c))
    spec.target Expr.pp spec.event Condition.pp spec.condition Action.pp
    spec.action
    (consumption_name spec.consumption)
    spec.priority

let pp ppf t =
  Fmt.pf ppf "%a@,[%s, last consideration %a, V(E)=%a]" pp_spec t.spec
    (if t.triggered then "triggered" else "idle")
    Time.pp t.last_consideration Relevance.pp t.relevance
