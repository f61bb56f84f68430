(** First-passage computations: the machinery behind the paper's "mean time
    between cycle slips", which is a mean transition time between sets of
    Markov-chain states (a linear system with the modified TPM). *)

val mean_hitting_times :
  ?tol:float ->
  ?max_iter:int ->
  ?cancel:(unit -> bool) ->
  Chain.t ->
  target:(int -> bool) ->
  Linalg.Vec.t
(** [mean_hitting_times c ~target] returns [m] with [m.(i)] the expected
    number of steps to first reach the target set starting from [i]
    ([0.] on target states, [infinity] where the target is unreachable).
    Solved by Gauss-Seidel on [(I - Q) m = 1] over the complement of the
    target. Plain sweeps converge at the event rate — hopeless for rare
    events — so the solver also forms out-of-place Aitken extrapolates of
    the geometrically decaying iterates and stops when successive
    extrapolation windows agree to [tol] (relative, default [1e-6]; rare-
    event accuracy is limited by the dominance-ratio estimate, so demanding
    much tighter tolerances mostly costs sweeps). [max_iter = 500_000]
    sweeps bounds the worst case. [?cancel] is polled once per 50-sweep
    extrapolation window; when it fires the solve raises
    {!Multigrid.Cancelled}. Raises [Invalid_argument] when the target is
    empty. *)

val flux : Cdr_op.t -> pi:Linalg.Vec.t -> crossing:(int -> int -> bool) -> float
(** Stationary probability flux through the marked transitions:
    [sum pi_i P_ij] over pairs with [crossing i j], summed in
    {!Cdr_op.iter_entries} order (row by row), so it runs on either
    backend. Events per step; its inverse is a mean time between events. *)
