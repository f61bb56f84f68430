(* The composed environment x CDR chain.

   Global state = (regime e, data d, counter c, phase bin p), packed with
   the regime slowest: [(((e * n_data) + d) * n_counter + c) * m + p]. One
   step factorizes as

     P((e, d, c, p) -> (e', d', c', p')) = S[e][e'] * P_e[(d,c,p) -> ...]

   — the environment switches independently per bit, and during the bit
   interval the CDR evolves under the dwell regime's parameters. Two
   representations, mirroring {!Cdr.Model} / {!Cdr.Kron_model}:

   - [`Csr]: a reachability BFS over the composite space reusing
     {!Cdr.Model.iter_successors} per regime, assembled row-major exactly
     like [build_direct]. With the identity environment the packing, the
     discovery order and every emitted probability ([1.0 *. p = p])
     coincide with the base build's, so the composed chain is bitwise equal
     to it — the test suite pins this.
   - [`Kron]: each regime's matrix-free factorization
     (sum of D (x) C (x) G terms from {!Cdr.Kron_model}) lifted by a
     leading R x R row-selector factor Row_e(S) (row e of the switching
     matrix, other rows empty) via {!Sparse.Kron_op.lift}:

       P = sum_e Row_e(S) (x) [sum_t D (x) C (x) G]_e

     Row_e(S) reaches only global rows with leading index e, so the terms
     partition the row space by dwell regime; row sums are
     (sum_e' S[e][e']) * 1 = 1. The existing operator solvers
     ({!Markov.Power.solve_op}, {!Markov.Op_multigrid}) run unchanged.

   All analyses (regime marginals, conditional densities, BER, slip flux)
   aggregate over the COMPOSED index — never by collapsing regimes first —
   because the quantities of interest are expectations over the joint
   stationary law: the regime-conditional phase density and the per-regime
   tail weight are coupled, and a naive per-regime mixture is exactly the
   approximation the bursty-jitter study quantifies the error of. *)

type repr = Chain of Markov.Chain.t | Kron of Sparse.Kron_op.t

type t = {
  env : Env.t;
  base : Cdr.Config.t;
  configs : Cdr.Config.t array;
  n_states : int;
  n_regimes : int;
  n_data : int;
  n_counter : int;
  m : int;
  op : Cdr_op.t;
  repr : repr;
  regime_code : int -> int;
  data_code : int -> int;
  counter_code : int -> int;
  phase_code : int -> int;
  build_seconds : float;
  mutable iad : Markov.Op_multigrid.setup option;
}

let backend t = match t.repr with Chain _ -> `Csr | Kron _ -> `Kron

let n_states t = t.n_states

let operator t = t.op

let build_csr env base configs =
  let r = Array.length configs in
  let tables = Array.map Cdr.Model.direct_tables configs in
  let m = base.Cdr.Config.grid_points in
  let n_data = Cdr.Data_source.n_states base in
  let n_counter = Cdr.Counter.n_states base in
  let key_space = r * n_data * n_counter * m in
  let pack ~e ~data ~counter ~phase =
    ((((((e * n_data) + data) * n_counter) + counter) * m) + phase : int)
  in
  let state_of_key = Array.make key_space (-1) in
  let order = Array.make key_space 0 in
  let count = ref 0 in
  let register key =
    if state_of_key.(key) < 0 then begin
      state_of_key.(key) <- !count;
      order.(!count) <- key;
      incr count
    end
  in
  let d0, c0, p0 = Cdr.Model.initial_state base in
  register (pack ~e:0 ~data:d0 ~counter:c0 ~phase:p0);
  let processed = ref 0 in
  while !processed < !count do
    let key = order.(!processed) in
    incr processed;
    let e = key / (n_data * n_counter * m) in
    let row = env.Env.switch.(e) in
    Cdr.Model.iter_successors configs.(e) tables.(e)
      ~data:(key / (n_counter * m) mod n_data)
      ~counter:(key / m mod n_counter) ~phase:(key mod m)
      (fun (d', c', phase') _p ->
        for e' = 0 to r - 1 do
          if row.(e') > 0.0 then register (pack ~e:e' ~data:d' ~counter:c' ~phase:phase')
        done)
  done;
  let n = !count in
  let emit_row i emit =
    let key = order.(i) in
    let e = key / (n_data * n_counter * m) in
    let row = env.Env.switch.(e) in
    Cdr.Model.iter_successors configs.(e) tables.(e)
      ~data:(key / (n_counter * m) mod n_data)
      ~counter:(key / m mod n_counter) ~phase:(key mod m)
      (fun (d', c', phase') p ->
        for e' = 0 to r - 1 do
          let s = row.(e') in
          if s > 0.0 then
            emit state_of_key.(pack ~e:e' ~data:d' ~counter:c' ~phase:phase') (s *. p)
        done)
  in
  let csr = Sparse.Csr.assemble ~rows:n ~cols:n emit_row in
  let chain = Markov.Chain.of_csr ~tol:1e-9 csr in
  ( n,
    Chain chain,
    Cdr_op.Csr_backend.create (Markov.Chain.tpm chain),
    (fun i -> order.(i) / (n_data * n_counter * m)),
    (fun i -> order.(i) / (n_counter * m) mod n_data),
    (fun i -> order.(i) / m mod n_counter),
    fun i -> order.(i) mod m )

let build_kron env base configs =
  let r = Array.length configs in
  let m = base.Cdr.Config.grid_points in
  let n_data = Cdr.Data_source.n_states base in
  let n_counter = Cdr.Counter.n_states base in
  let row_selector e =
    let coo = Sparse.Coo.create ~rows:r ~cols:r in
    Array.iteri
      (fun e' s -> if s > 0.0 then Sparse.Coo.add coo ~row:e ~col:e' s)
      env.Env.switch.(e);
    Sparse.Coo.to_csr coo
  in
  let kron =
    Sparse.Kron_op.sum
      (List.init r (fun e ->
           Sparse.Kron_op.lift (row_selector e)
             (Cdr.Kron_model.build configs.(e)).Cdr.Kron_model.kron))
  in
  let op = Cdr_op.Kron_backend.create ~label:("env:" ^ env.Env.name) kron in
  (match Cdr_op.check_stochastic ~tol:1e-9 op with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Cdr_env.Composed: composed operator is not stochastic: " ^ msg));
  let n = r * n_data * n_counter * m in
  ( n,
    Kron kron,
    op,
    (fun i -> i / (n_data * n_counter * m)),
    (fun i -> i / (n_counter * m) mod n_data),
    (fun i -> i / m mod n_counter),
    fun i -> i mod m )

let build ?(backend = `Csr) env base =
  let base = Cdr.Config.create_exn base in
  (match Env.validate env with
  | Ok () -> ()
  | Error m -> invalid_arg ("Cdr_env.Composed.build: " ^ m));
  let r = Env.n_regimes env in
  let configs = Array.init r (Env.regime_config env base) in
  let via = Cdr_op.kind_string backend in
  let built, build_seconds =
    Cdr_obs.Span.timed ~name:"env.build"
      ~attrs:[ ("via", via); ("regimes", string_of_int r) ]
    @@ fun () ->
    let n_states, repr, op, regime_code, data_code, counter_code, phase_code =
      match backend with
      | `Csr -> build_csr env base configs
      | `Kron -> build_kron env base configs
    in
    {
      env;
      base;
      configs;
      n_states;
      n_regimes = r;
      n_data = Cdr.Data_source.n_states base;
      n_counter = Cdr.Counter.n_states base;
      m = base.Cdr.Config.grid_points;
      op;
      repr;
      regime_code;
      data_code;
      counter_code;
      phase_code;
      build_seconds = 0.0;
      iad = None;
    }
  in
  Cdr_obs.Metrics.incr "env.builds" ~labels:[ ("via", via) ];
  { built with build_seconds }

(* The lead coordinate is (regime, data): regimes carry the modulation
   (lumping them is exactly the mixture approximation) and the data
   dimension is small, so the shared hierarchy halves phases, then the
   counter, and never touches either. *)
let spec t =
  {
    Cdr.Chain_spec.op = t.op;
    chain = (match t.repr with Chain chain -> Some chain | Kron _ -> None);
    lead = (fun i -> (t.regime_code i * t.n_data) + t.data_code i);
    counter = t.counter_code;
    phase = t.phase_code;
    config = t.base;
    iad = { get = (fun () -> t.iad); set = (fun s -> t.iad <- Some s) };
  }

let hierarchy t = Cdr.Chain_spec.hierarchy (spec t)

type solver = [ `Multigrid | `Power | `Gauss_seidel | `Jacobi ]

let solve ?(solver = `Multigrid) ?ctx t =
  Cdr.Chain_spec.solve ~scope:"env"
    ~labels:[ ("backend", Cdr_op.kind_string (backend t)) ]
    ~solver:(solver :> Cdr.Chain_spec.solver)
    ?ctx (spec t)

(* ---------- functionals of the composed stationary vector ----------

   Everything below aggregates on the composed index (e, p): conditional
   densities and regime weights come from the same joint law, so the
   regime-weighted BER is the exact stationary expectation
   E[tail(config_E, Phi)] — not the per-regime mixture. *)

let check_pi t pi ~fn =
  if Array.length pi <> t.n_states then
    invalid_arg (Printf.sprintf "Cdr_env.Composed.%s: dimension mismatch" fn)

let regime_probs t ~pi =
  check_pi t pi ~fn:"regime_probs";
  Markov.Stat.marginal ~pi ~label:t.regime_code ~n_labels:t.n_regimes

let phase_marginal t ~pi =
  check_pi t pi ~fn:"phase_marginal";
  Cdr.Chain_spec.phase_marginal (spec t) ~pi

(* joint (regime, phase) mass, the ingredient of both conditionals *)
let joint_regime_phase t ~pi =
  let joint = Array.make_matrix t.n_regimes t.m 0.0 in
  Array.iteri
    (fun i mass ->
      let row = joint.(t.regime_code i) in
      let p = t.phase_code i in
      row.(p) <- row.(p) +. mass)
    pi;
  joint

let regime_conditional_densities t ~pi =
  check_pi t pi ~fn:"regime_conditional_densities";
  let joint = joint_regime_phase t ~pi in
  Array.map
    (fun row ->
      let mass = Array.fold_left ( +. ) 0.0 row in
      if mass > 0.0 then Array.map (fun v -> v /. mass) row else Array.copy row)
    joint

let regime_ber t ~pi =
  let conditionals = regime_conditional_densities t ~pi in
  Array.mapi (fun e rho -> Cdr.Ber.of_marginal t.configs.(e) ~rho) conditionals

let ber t ~pi =
  check_pi t pi ~fn:"ber";
  let probs = regime_probs t ~pi in
  let bers = regime_ber t ~pi in
  let acc = ref 0.0 in
  Array.iteri (fun e w -> if w > 0.0 then acc := !acc +. (w *. bers.(e))) probs;
  !acc

let slip_rate t ~pi =
  check_pi t pi ~fn:"slip_rate";
  Cdr.Chain_spec.slip_rate (spec t) ~pi

let mean_bits_between_slips t ~pi =
  check_pi t pi ~fn:"mean_bits_between_slips";
  Cdr.Chain_spec.mean_time_between_slips (spec t) ~pi

(* The naive approximation the composed model exists to improve on: solve
   each regime's CDR standalone and weight the BERs by the environment's
   stationary law. Exact in the slow-switching limit (the chain equilibrates
   within each dwell); the bursty-jitter study measures its error under
   fast switching. *)
let mixture_ber ?solver ?ctx t =
  let weights = Env.stationary t.env in
  let bers =
    Array.map
      (fun cfg ->
        let model = Cdr.Model.build cfg in
        let result, _ = Cdr.Ber.analyze ?solver ?ctx model in
        result.Cdr.Ber.ber)
      t.configs
  in
  let acc = ref 0.0 in
  Array.iteri (fun e w -> acc := !acc +. (w *. bers.(e))) weights;
  (bers, !acc)
