(** Cycle slips: the phase error wrapping around [+-1/2] — the recovered
    clock slipping a full bit with respect to the data, the synchronization
    failure whose mean recurrence time the paper computes.

    Two independent estimates:
    - {!rate}: stationary probability flux across the wrap boundary
      (slips per bit interval, {!Chain_spec.slip_rate}); its inverse is the
      mean time between slips in steady state;
    - {!mean_first_slip_time}: expected number of bit intervals until the
      first slip starting from the locked state, via a first-passage
      computation on the chain with the boundary-crossing transitions
      redirected to an absorbing state. *)

val rate : Model.t -> pi:Linalg.Vec.t -> float

val mean_time_between : Model.t -> pi:Linalg.Vec.t -> float
(** [1 / rate]; [infinity] when no slip transition carries mass. *)

val mean_first_slip_time : ?tol:float -> ?ctx:Context.t -> Model.t -> float
(** From the canonical initial state (counter 0, phase 0). [?tol] is the
    first-passage tolerance ({!Markov.Passage.mean_hitting_times}'s
    default); only [ctx.cancel] is read from the context, polled once per
    extrapolation window — a firing hook raises
    {!Markov.Multigrid.Cancelled}. *)
