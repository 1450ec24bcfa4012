(* The umbrella public API: one module re-exporting every subsystem of the
   reproduction.  Downstream users depend on the [core] library and reach
   everything as [Core.<Module>]; the examples and benches use only this
   surface. *)

(* Foundations. *)
module Time = Chimera_util.Time
module Ident = Chimera_util.Ident
module Prng = Chimera_util.Prng
module Pretty = Chimera_util.Pretty
module Vec = Chimera_util.Vec
module Failpoint = Chimera_util.Failpoint
module Monotime = Chimera_util.Monotime
module Fnv = Chimera_util.Fnv
module Mailbox = Chimera_util.Mailbox
module Backoff = Chimera_util.Backoff

(* Observability: metrics, trace spans, sinks. *)
module Obs = Chimera_obs.Obs

(* Event substrate. *)
module Event_type = Chimera_event.Event_type
module Occurrence = Chimera_event.Occurrence
module Event_base = Chimera_event.Event_base
module Window = Chimera_event.Window
module Event_codec = Chimera_event.Event_codec
module Event_stats = Chimera_event.Event_stats
module Journal = Chimera_event.Journal
module Checkpoint = Chimera_event.Checkpoint

(* The event calculus: the paper's contribution. *)
module Expr = Chimera_calculus.Expr
module Expr_parse = Chimera_calculus.Expr_parse
module Ts = Chimera_calculus.Ts
module Lift = Chimera_calculus.Lift
module Derived = Chimera_calculus.Derived
module Normal_form = Chimera_calculus.Normal_form

(* Static optimization (Section 5.1). *)
module Variation = Chimera_optimizer.Variation
module Derive = Chimera_optimizer.Derive
module Simplify = Chimera_optimizer.Simplify
module Relevance = Chimera_optimizer.Relevance

(* Chimera object store. *)
module Value = Chimera_store.Value
module Schema = Chimera_store.Schema
module Object_store = Chimera_store.Object_store
module Operation = Chimera_store.Operation
module Query = Chimera_store.Query
module Store_codec = Chimera_store.Store_codec

(* Active-rule subsystem. *)
module Rule = Chimera_rules.Rule
module Rule_table = Chimera_rules.Rule_table
module Condition = Chimera_rules.Condition
module Action = Chimera_rules.Action
module Trigger_support = Chimera_rules.Trigger_support
module Engine = Chimera_rules.Engine
module Net_effect = Chimera_rules.Net_effect
module Analysis = Chimera_rules.Analysis

(* Network ingestion: the wire protocol, session shards, the select
   reactor and the load generator behind [chimera serve]/[loadgen]. *)
module Protocol = Chimera_server.Protocol
module Session = Chimera_server.Session
module Server = Chimera_server.Server
module Loadgen = Chimera_server.Loadgen

(* Script language. *)
module Lang_ast = Chimera_lang.Ast
module Lang_lexer = Chimera_lang.Lexer
module Lang_parser = Chimera_lang.Parser
module Interp = Chimera_lang.Interp

(* Baseline detectors from the related-work systems. *)
module Tree_detector = Chimera_baseline.Tree_detector
module Automaton = Chimera_baseline.Automaton
module Naive = Chimera_baseline.Naive
module Context_detector = Chimera_baseline.Context_detector
module Inst_tree_detector = Chimera_baseline.Inst_tree_detector

(* Workload generation. *)
module Domain = Chimera_workload.Domain
module Expr_gen = Chimera_workload.Expr_gen
module Scenario = Chimera_workload.Scenario
