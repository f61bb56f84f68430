(** The composed CDR Markov chain (the paper's Figure 2 model).

    Global state = (data-source state, counter state, phase-error bin). Two
    construction paths are provided:

    - {!build_via_network} goes through the generic {!Fsm.Network}
      composition — the paper's formalism, literally: four interacting FSMs
      with stochastic inputs, joint noise enumeration, reachability BFS;
    - {!build_direct} produces the same chain by analytically marginalizing
      each noise source where it acts (coins into the data machine, [n_w]
      into phase-detector decision probabilities, [n_r] into phase moves).
      It is orders of magnitude faster and is the default for large grids.

    Property tests assert both paths agree transition-by-transition. *)

type t = {
  config : Config.t;
  chain : Markov.Chain.t;
  n_states : int;
  data_code : int -> int; (* chain index -> component codes *)
  counter_code : int -> int;
  phase_bin : int -> int;
  index_of : data:int -> counter:int -> phase:int -> int option;
  build_seconds : float;
}

val initial_state : Config.t -> int * int * int
(** Canonical start: data (bit 0, run 1), counter 0, phase bin 0 (phase
    [-1/2])... actually phase centered at 0; see implementation. *)

type direct_tables = {
  data_outcomes : (float * int * bool) list array;
      (* per data state: (prob, next data, transition?) *)
  pd_probs : (float * float * float) array; (* per phase bin: lead/null/lag *)
  counter_table : (int * Counter.command) array array;
  nr_atoms : (int * float) list;
}
(** The per-block marginalized probability tables the direct construction
    enumerates successors from. Exposed because they are also exactly the
    ingredients of the Kronecker factorization ({!Kron_model} builds its
    factor matrices from them) — one source of truth for both
    representations. *)

val direct_tables : Config.t -> direct_tables

val iter_successors :
  Config.t ->
  direct_tables ->
  data:int ->
  counter:int ->
  phase:int ->
  (int * int * int -> float -> unit) ->
  unit
(** Enumerates the successors of one global state [(data, counter, phase)]
    under the marginalized tables: calls [f (data', counter', phase') p] for
    every outcome atom, in the fixed deterministic order the direct
    construction uses (data outcome, then detector outcome, then random-walk
    atom). Duplicate successor triples are emitted separately; consumers sum
    them. Exposed so composed chains (environment x CDR, {!Cdr_env}) can
    reuse the per-regime successor enumeration verbatim. *)

val build_via_network : Config.t -> t

val build_direct : ?pool:Cdr_par.Pool.t -> Config.t -> t
(** Flat-state direct construction: global states pack into dense int keys
    ([((data * n_counter) + counter) * grid_points + phase]), the
    reachability BFS runs on flat int arrays, and the CSR is assembled in
    two symbolic passes plus a value pass ({!Sparse.Csr.assemble}) — no
    hashtables, COO staging or per-row lists anywhere on the path. [?pool]
    parallelizes the value pass over rows; results are bit-identical for
    every job count, and to {!build_direct_reference}. *)

val build_direct_reference : Config.t -> t
(** The original hashtable-and-COO construction, kept as the reference the
    flat path is pinned against (the test suite asserts both produce
    bitwise-identical chains). Not used on any production path. *)

val build : ?via:[ `Network | `Direct ] -> ?pool:Cdr_par.Pool.t -> Config.t -> t
(** Default [`Direct]. [?pool] applies to the direct path only. *)

val rebuild : ?pool:Cdr_par.Pool.t -> t -> Config.t -> t * bool
(** [rebuild t cfg] builds the model for [cfg] reusing [t]'s reachable-state
    enumeration and CSR sparsity pattern when only noise parameters
    ([sigma_w], [p01]/[p10], the [n_r] pmf, the dead zone, the [n_w]
    discretization) changed: successors are re-enumerated per state straight
    into the cached pattern — no reachability BFS, no state registration, no
    COO sort, no per-row hashtables (entry positions come from a binary
    search in the cached row, {!Sparse.Csr.row_index}) — and the new TPM
    shares structure arrays with the old one ({!Sparse.Csr.refill}), so a
    multigrid setup keyed on the old pattern still matches in O(1). [?pool]
    splits the rows over slots (rows own disjoint value segments; results
    are bit-identical for every job count).

    Returns [(model, true)] on the fast path. Whenever the fast path is not
    provably equivalent to a fresh build — a state-space parameter changed,
    or the new noise parameters move the set of nonzeros — it falls back to
    {!build_direct} and returns [(model, false)]. Counted in the
    ["model.rebuilds"] metric with a [pattern=reused|fresh] label. *)

val operator : t -> Cdr_op.t
(** The chain's TPM wrapped as a {!Cdr_op.t} CSR backend — the materialized
    counterpart of {!Kron_model.operator}, so backend-generic code (solvers,
    benches, tests) can treat both representations uniformly. *)

val spec : t -> Chain_spec.t
(** The model as a {!Chain_spec.t}: the CSR operator and chain, the
    (data, counter, phase) coordinate codes and the config. *)

val phase_marginal : t -> pi:Linalg.Vec.t -> Linalg.Vec.t
(** Stationary marginal over phase bins (the density the paper plots). *)

val hierarchy : t -> Markov.Partition.t list
(** {!Chain_spec.hierarchy}: lump pairs of consecutive phase bins, then
    counter pairs, until a level fits a direct solve. *)

val solve : ?solver:Chain_spec.solver -> ?ctx:Context.t -> t -> Markov.Solution.t
(** Stationary distribution ({!Chain_spec.solve}, default [`Multigrid] on
    the structured {!hierarchy}, through [ctx.cache] when set) inside a
    ["model.solve"] span. The context carries the tolerance, warm start,
    trace, pool, smoother and cancellation hook; {!Context.default}
    reproduces the historical defaults bitwise. *)

val network : Config.t -> Fsm.Network.t * int array
(** The underlying FSM network and its initial state vector (exposed for
    inspection, simulation, and the Figure-2 style summary dump). *)
