(** The chain layer shared by every CDR model representation.

    {!Model} (materialized CSR chain), {!Kron_model} (matrix-free Kronecker
    operator) and [Cdr_env.Composed] (environment (x) CDR, either backend)
    are one pipeline — TPM, multigrid whose coarse levels lump adjacent
    phase-error states, measures of the stationary vector — applied to
    chains that differ only in representation and in the length of their
    leading coordinate. Each model fills in a [t]; the hierarchy, the solve
    dispatch and the measures below are written once over it.

    A state's coordinates are [(lead, counter, phase)]: [lead] is the data
    source state for the plain CDR chain and [regime * n_data + data] for
    the environment-modulated one. *)

type memo = {
  get : unit -> Markov.Op_multigrid.setup option;
  set : Markov.Op_multigrid.setup -> unit;
}
(** Access to a model's memoized matrix-free IAD setup (its mutable [iad]
    field). *)

val no_memo : memo
(** For CSR specs, whose multigrid setups live in {!Solver_cache}. *)

type t = {
  op : Cdr_op.t;
  chain : Markov.Chain.t option;  (** [Some] exactly when [op] is CSR *)
  lead : int -> int;
  counter : int -> int;
  phase : int -> int;  (** phase-error bin, [0 .. grid_points - 1] *)
  config : Config.t;
      (** the config whose {!Phase_error.crosses_boundary} marks a slip and
          whose [grid_points] sizes the phase marginal *)
  iad : memo;
}

type solver =
  [ `Multigrid | `Power | `Gauss_seidel | `Jacobi | `Sor of float | `Aggregation | `Arnoldi ]

val solver_name : [< solver ] -> string
(** Stable lower-case names used in span attributes and telemetry labels. *)

val hierarchy : t -> Markov.Partition.t list
(** Structured multigrid coarsening, the paper's strategy: each level lumps
    pairs of consecutive phase bins while keeping the other coordinates;
    once the phase grid cannot be halved further, counter pairs are lumped.
    The lead coordinate is never lumped (for the environment chain it
    carries the modulation). Coarse blocks are numbered by first appearance
    in state order, which on a full product space is the arithmetic
    mixed-radix map. Stops once a level fits
    {!Markov.Gth.max_direct_size}. *)

val solve :
  scope:string ->
  labels:(string * string) list ->
  ?solver:solver ->
  ?ctx:Context.t ->
  t ->
  Markov.Solution.t
(** Stationary distribution (default [`Multigrid]) inside a
    ["<scope>.solve"] span, counted in ["<scope>.solves"] with the solver
    name and [labels].

    - [`Multigrid] on a CSR chain runs {!Markov.Multigrid} on {!hierarchy},
      through [ctx.cache] when set; on a matrix-free operator it runs
      {!Markov.Op_multigrid} through the IAD memo, building the hierarchy
      only when a setup must be prepared, and falls back to power iteration
      when the chain fits a direct solve.
    - [`Power] and [`Jacobi] run on the operator, either backend.
    - [`Gauss_seidel], [`Sor], [`Aggregation] and [`Arnoldi] need the CSR
      chain and raise [Invalid_argument] on a matrix-free operator.

    Uses the context's tolerance, warm start (dropped on a length
    mismatch), smoother, trace, pool and cancellation hook (polled by the
    multigrid paths, which raise {!Markov.Multigrid.Cancelled}). *)

val phase_marginal : t -> pi:Linalg.Vec.t -> Linalg.Vec.t
(** Stationary marginal over phase bins (the density the paper plots). *)

val crossing : t -> int -> int -> bool
(** Whether the transition [i -> j] wraps the phase error around [+-1/2]. *)

val slip_rate : t -> pi:Linalg.Vec.t -> float
(** Stationary probability flux through boundary-wrapping transitions:
    {!Markov.Passage.flux} on the operator. *)

val mean_time_between_slips : t -> pi:Linalg.Vec.t -> float
(** [1 / slip_rate]; [infinity] when no slip transition carries mass. *)

val transplant_iad : from:t -> t -> unit
(** [transplant_iad ~from into] moves [from]'s memoized IAD setup into
    [into]'s memo when it matches [into]'s operator dimension — how a
    service reuses the O(states) solver state across fresh builds of the
    same structure. *)
