(** The CDR chain as a matrix-free Kronecker operator.

    Built from the same marginalized probability tables as the direct CSR
    construction ({!Model.direct_tables}), but never materializing the
    product: one Kronecker term [D_t (x) C_(o,cmd) (x) G_(t,o,cmd)] per
    surviving (transition flag, detector output, counter command) triple.
    Storage is the factor matrices — O(n_data² + n_counter² + m · |n_r|)
    per term — against the CSR model's O(states · successors); that is what
    lets stationary solves reach the paper's ~1e6-state regimes (ROADMAP
    item 1) on a laptop.

    The operator acts on the {e full} product space
    [n_data * n_counter * grid_points] with the direct path's packing
    [((d * n_counter) + c) * m + p], not the BFS-reachable subset: transient
    never-reached states carry stationary mass 0, so BER and slip
    functionals agree with the CSR model to solver tolerance (the property
    tests pin this). *)

type t = {
  config : Config.t;
  kron : Sparse.Kron_op.t;
  op : Cdr_op.t;
  n_states : int; (* full product space *)
  n_data : int;
  n_counter : int;
  m : int; (* phase grid points *)
  build_seconds : float;
  mutable iad : Markov.Op_multigrid.setup option;
      (* memoized IAD solver state (partition, coarse hierarchy, workspaces,
         aggregated pattern): the first [`Multigrid] solve prepares it, every
         later solve on this model reuses it — repeated service queries pay
         the symbolic cost once. Owned by the model: one solve at a time. *)
}

val build : Config.t -> t
(** Builds the factor matrices and verifies row-stochasticity exactly (via
    the factorized row sums — no apply); raises [Invalid_argument] if the
    factorization fails the check. Runs in a ["model.build"] span with
    [via=kron] and counts in the ["model.builds"] metric. *)

val operator : t -> Cdr_op.t

val n_states : t -> int

val data_code : t -> int -> int

val counter_code : t -> int -> int

val phase_bin : t -> int -> int

val index_of : t -> data:int -> counter:int -> phase:int -> int option
(** Always [Some] for in-range codes — the full space has every triple. *)

val spec : t -> Chain_spec.t
(** The model as a {!Chain_spec.t}: the Kronecker operator, the
    full-product-space coordinate codes and the [iad] memo. *)

type solver = [ `Power | `Jacobi | `Multigrid ]

val solver_name : solver -> string

val solve : ?solver:solver -> ?ctx:Context.t -> t -> Markov.Solution.t
(** Stationary distribution, matrix-free ({!Chain_spec.solve}). Default
    [`Power] (the workhorse at scale). [`Jacobi] runs the damped operator
    splitting; [`Multigrid] runs {!Markov.Op_multigrid} with the first
    {!hierarchy} level as the aggregation partition and the rest solving
    the coarse chain, prepared once into [iad] (falling back to power when
    the model is below the direct-solve size). *)

val hierarchy : t -> Markov.Partition.t list
(** {!Chain_spec.hierarchy} on the full product space, where first-appearance
    block numbering reduces to the arithmetic mixed-radix maps. *)

val phase_marginal : t -> pi:Linalg.Vec.t -> Linalg.Vec.t
(** Stationary marginal over phase bins — feed to {!Ber.of_marginal}. *)

val slip_rate : t -> pi:Linalg.Vec.t -> float
(** {!Chain_spec.slip_rate}: the stationary boundary-crossing flux,
    enumerated matrix-free. *)

val mean_time_between_slips : t -> pi:Linalg.Vec.t -> float
