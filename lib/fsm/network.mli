(** Networks of FSMs with stochastic inputs — the paper's modeling formalism.

    A network wires {!Component.t} machines to each other and to noise
    sources (pmfs over integer symbols). Components are evaluated in listed
    order within each clock cycle, so wiring must be feed-forward: component
    [k] may read only noise sources and outputs of components [0..k-1].
    Under white (time-uncorrelated) noise sources the global state process
    is a Markov chain; {!build_chain} constructs its transition probability
    matrix over the *reachable* part of the product state space by
    breadth-first exploration, enumerating the joint noise support at every
    state. *)

type source = { source_name : string; pmf : Prob.Pmf.t }

type signal =
  | From_source of int (* index into sources; symbol = pmf label *)
  | From_component of int (* index into components; symbol = its output *)
  | From_state of int
      (* index into components; symbol = its *current* (pre-update) state.
         This is registered feedback: it may point at any component, which is
         how the loop data -> PD -> counter -> phase error -> PD closes
         without violating the feed-forward evaluation order. *)

type t

val create : sources:source array -> components:Component.t array -> wiring:signal array array -> t
(** [wiring.(k)] lists, in port order, where component [k]'s inputs come
    from. Raises [Invalid_argument] if a wire is not feed-forward, an index
    is out of range, arities disagree, or a source pmf contains labels
    outside the declared input cardinality of a destination port
    (pmf labels must lie in [0, card)). *)

val n_global_states : t -> int
(** Product-space size (before reachability pruning). *)

val encode : t -> int array -> int
(** Mixed-radix packing of per-component states. *)

val decode : t -> int -> int array

type built = {
  chain : Markov.Chain.t;
  states : int array array; (* row index -> per-component states *)
  index_of : int array -> int option; (* inverse lookup *)
}

val build_chain : t -> initial:int array -> built
(** Explore from [initial]. Raises [Invalid_argument] on a malformed initial
    state vector. *)

val simulate :
  t -> rng:Prob.Rng.t -> initial:int array -> steps:int -> on_step:(int array -> int array -> unit) -> unit
(** Direct simulation without building the chain: at each step samples all
    sources, calls [on_step states outputs] (before the state update), then
    advances. The reference semantics that {!build_chain} must agree with —
    property tests exploit this. *)

val pp_summary : Format.formatter -> t -> unit

val to_dot : t -> string
(** Graphviz rendering of the network topology (Figure 2 of the paper):
    sources as ellipses, components as boxes, solid edges for combinational
    output wires, dashed edges for registered state feedback. *)
