let rate model ~pi = Chain_spec.slip_rate (Model.spec model) ~pi

let mean_time_between model ~pi = Chain_spec.mean_time_between_slips (Model.spec model) ~pi

(* Build the absorbed chain: every boundary-crossing transition is redirected
   to a fresh absorbing state, then the expected hitting time of that state
   is the mean time to the first slip. *)
let mean_first_slip_time ?tol ?(ctx = Context.default) model =
  let spec = Model.spec model in
  let chain = model.Model.chain in
  let n = Markov.Chain.n_states chain in
  let absorbing = n in
  let acc = Sparse.Coo.create ~rows:(n + 1) ~cols:(n + 1) in
  Sparse.Csr.iter (Markov.Chain.tpm chain) (fun i j v ->
      if Chain_spec.crossing spec i j then Sparse.Coo.add acc ~row:i ~col:absorbing v
      else Sparse.Coo.add acc ~row:i ~col:j v);
  Sparse.Coo.add acc ~row:absorbing ~col:absorbing 1.0;
  let absorbed = Markov.Chain.of_csr ~tol:1e-9 (Sparse.Coo.to_csr acc) in
  let times =
    Markov.Passage.mean_hitting_times ?tol ?cancel:ctx.Context.cancel absorbed ~target:(fun s ->
        s = absorbing)
  in
  let cfg = model.Model.config in
  let d0, c0, p0 = Model.initial_state cfg in
  match model.Model.index_of ~data:d0 ~counter:c0 ~phase:p0 with
  | Some idx -> times.(idx)
  | None -> invalid_arg "Cycle_slip.mean_first_slip_time: initial state unreachable"
