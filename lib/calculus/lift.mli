(** Incremental instance-to-set lifting: one state per [Inst] node of an
    event expression, equal to {!Ts.lift} at every probe.

    Each node keeps every window object's [ots] as a fixed value or as
    ±(the probe instant), re-evaluates only the object of each arrival of
    the node's types, and reads the max-lift (the min-lift for a
    top-level [-=]) from an ordered value -> count map.  The state
    catches up lazily from the instant it last answered for, and starts
    over when the window's lower bound moves, when
    {!Chimera_event.Event_base.truncate_to} has run since, or when probed
    over another event base.  Probes behind it go to {!Ts.lift}.

    [Ts] stays the specification and the oracle; this is the evaluator
    the Trigger Support probes rules with. *)

open Chimera_util

type t

val create : Expr.set -> t
(** A fresh state for every [Inst] node of the expression; an expression
    without one costs nothing beyond a plain {!Ts.ts}. *)

val ts : t -> Ts.env -> at:Time.t -> int
(** [Ts.ts env ~at e] for the expression [e] the state was created for —
    one [ts.evals] and one [ts.eval_ns], like [Ts.ts].  Each
    re-evaluated object counts one [ts.lift_updates]. *)
