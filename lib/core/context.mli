(** One bundle for everything a stationary analysis threads through its
    solver stack.

    Before this module, every entry point ({!Model.solve}, {!Ber.analyze},
    {!Report.run_model}, the {!Sweep} runners) grew its own copy of the same
    optional-argument list — pool, trace, cache, warm-start vector, smoother,
    tolerance — and adding one knob meant touching every layer. A [Context.t]
    is that list as a value: build it once, hand it to any entry point with
    [?ctx], and the layers below forward it unchanged.

    The solve entry points ({!Model.solve}, {!Kron_model.solve}) take only
    [?ctx]; {!Ber}, {!Report} and {!Sweep} still keep their per-call
    optional arguments as thin wrappers: an explicit argument overrides the
    corresponding context field ({!override}). A call that passes neither
    gets {!default}, which reproduces the historical defaults exactly.

    The long-running analysis service is the motivating consumer: it builds
    one context per request (process-wide cache, shared pool, per-request
    deadline hook) instead of spelling seven arguments at four call sites. *)

type strategy = {
  warm_start : bool;
      (** sweeps: start each solve from a secant extrapolation of the
          previous points' stationary vectors *)
  reuse_setup : bool;
      (** sweeps: rebuild models in place and cache multigrid setups per
          structure *)
}
(** Sweep continuation strategy. Defined here (not in [Sweep]) so a context
    can carry it below the [Sweep] layer; [Sweep.strategy] re-exports it. *)

val cold : strategy
(** Independent cold solves — the historical default. *)

val warm : strategy
(** Warm-started, structure-cached continuation (both fields true). *)

type t = {
  pool : Cdr_par.Pool.t option;  (** domain pool for the parallel kernels *)
  trace : Cdr_obs.Trace.t option;  (** solver convergence recorder *)
  cache : Solver_cache.t option;  (** structure-keyed multigrid setup cache *)
  init : Linalg.Vec.t option;  (** warm-start iterate *)
  smoother : Markov.Multigrid.smoother;  (** Gauss-Seidel variant, [`Lex] *)
  strategy : strategy;  (** sweep continuation mode, {!cold} *)
  tol : float;  (** solver convergence tolerance, [1e-12] *)
  cancel : (unit -> bool) option;
      (** cooperative-cancellation hook, polled between multigrid V-cycles
          (see {!Markov.Multigrid.solve_with}), between IAD cycles and once
          per first-passage extrapolation window
          ({!Cycle_slip.mean_first_slip_time}); [true] aborts the solve with
          {!Markov.Multigrid.Cancelled}. The serving layer points this at a
          deadline check. Power iteration and the splittings do not poll
          it. *)
  backend : Cdr_op.kind;
      (** operator representation the solve runs on, [`Csr]. [`Kron] routes
          the entry points that support it through the matrix-free Kronecker
          operator ({!Kron_model}) instead of the materialized chain; entry
          points with no matrix-free path reject it rather than silently
          falling back. *)
}

val default : t
(** No pool, no trace, no cache, no warm start, [`Lex] smoother, {!cold}
    strategy, tolerance [1e-12], no cancellation, [`Csr] backend — exactly
    the defaults the per-call optional arguments have always had. *)

val make :
  ?pool:Cdr_par.Pool.t ->
  ?trace:Cdr_obs.Trace.t ->
  ?cache:Solver_cache.t ->
  ?init:Linalg.Vec.t ->
  ?smoother:Markov.Multigrid.smoother ->
  ?strategy:strategy ->
  ?tol:float ->
  ?cancel:(unit -> bool) ->
  ?backend:Cdr_op.kind ->
  unit ->
  t
(** {!default} with the given fields replaced. *)

val override :
  ?pool:Cdr_par.Pool.t ->
  ?trace:Cdr_obs.Trace.t ->
  ?cache:Solver_cache.t ->
  ?init:Linalg.Vec.t ->
  ?smoother:Markov.Multigrid.smoother ->
  ?strategy:strategy ->
  ?tol:float ->
  ?cancel:(unit -> bool) ->
  ?backend:Cdr_op.kind ->
  t ->
  t
(** [t] with every {e explicitly passed} argument replacing the matching
    field — the wrapper the entry points use to keep their historical
    optional arguments: [Ber.analyze ?pool ?ctx] is
    [analyze (override ?pool ctx)]. An argument that is not passed
    leaves the field alone (there is no way to {e clear} a field through
    [override]; build a fresh context for that). *)
