(* The benchmark's in-process half. Three subcommands, each reading request
   lines (the exact JSONL the benchmark sends to cdr_serve) on stdin:

   - [replay]: run the requests through the public functions of Cdr_svc, Cdr,
     Cdr_env, Markov and Cdr_op in the order Engine.run_kind calls them,
     timing each call from outside as a span. Spans stay in memory and are
     written when the replay ends. The tracing overhead is the span count
     times the cost of one span, timed directly after the replay.
   - [kernels]: ns per nonzero of Cdr_op.vec_mul_into on the first request's
     CSR and Kronecker operators, bytes per apply computed from array sizes,
     and a copy-bandwidth ceiling measured in the same process.
   - [refs]: reference answers for every request, solved cold through both
     backends (materialized CSR and matrix-free Kronecker).

   Usage: pbench replay --responses FILE --spans-out FILE [--result-cache CAP]
          pbench kernels
          pbench refs *)

module J = Cdr_obs.Jsonl
module P = Cdr_svc.Protocol
module Params = Cdr_svc.Params
module Rc = Cdr_svc.Result_cache

let now = Cdr_obs.Clock.monotonic
let num f = J.Num f
let int_num i = J.Num (float_of_int i)

let read_lines ic =
  let rec go acc =
    match input_line ic with
    | l -> go (if String.trim l = "" then acc else l :: acc)
    | exception End_of_file -> List.rev acc
  in
  go []

(* ---------- spans ---------- *)

type span = {
  sid : int;
  name : string;
  req : int;
  parent : int;
  t0 : float;
  t1 : float;
  attrs : (string * J.t) list;
}

let spans : span list ref = ref []
let next_sid = ref 0
let cur_parent = ref (-1)
let cur_req = ref (-1)

(* [record name f] times [f ()] as a child of the enclosing span. [rename]
   names the span from the result, for calls whose layer is only known
   afterwards (a Model.rebuild that falls back to a fresh build); a call that
   raises keeps [name] and gains an "error" attribute. *)
let record ?(rename = fun _ -> None) name f =
  let sid = !next_sid in
  incr next_sid;
  let up = !cur_parent in
  cur_parent := sid;
  let t0 = now () in
  let finish name attrs =
    spans := { sid; name; req = !cur_req; parent = up; t0; t1 = now (); attrs } :: !spans;
    cur_parent := up
  in
  match f () with
  | r ->
      let name, attrs = Option.value (rename r) ~default:(name, []) in
      finish name attrs;
      r
  | exception exn ->
      finish name [ ("error", J.Str (Printexc.to_string exn)) ];
      raise exn

let span ?(attrs = fun _ -> []) name f = record ~rename:(fun r -> Some (name, attrs r)) name f

(* Seconds one span adds around its call: the median over 5 batches of
   20,000 empty spans, recorded like the replay's own and then dropped. *)
let span_cost () =
  let n = 20_000 in
  let saved = !spans in
  let batch () =
    let t0 = now () in
    for _ = 1 to n do
      span "overhead" (fun () -> ())
    done;
    let dt = (now () -. t0) /. float_of_int n in
    spans := saved;
    dt
  in
  let samples = Array.init 5 (fun _ -> batch ()) in
  Array.sort compare samples;
  samples.(2)

let span_json s =
  J.Obj
    [
      ("id", int_num s.sid);
      ("name", J.Str s.name);
      ("req", int_num s.req);
      ("parent", int_num s.parent);
      ("start", num s.t0);
      ("end", num s.t1);
      ("attrs", J.Obj s.attrs);
    ]

(* ---------- the replayed engine ---------- *)

type state = {
  cache : Cdr.Solver_cache.t;
  results : Rc.t option;
  mutable last_model : (string * Cdr.Model.t) option;
  mutable last_kron : (string * Cdr.Kron_model.t) option;
  mutable last_env : (string * Cdr_env.Composed.t) option;
}

exception Unsupported of string

let model_attrs (m : Cdr.Model.t) =
  [
    ("states", int_num m.Cdr.Model.n_states);
    ("nnz", int_num (Sparse.Csr.nnz (Markov.Chain.tpm m.Cdr.Model.chain)));
  ]

(* Engine.get_model: refill in place when the model key repeats *)
let get_model st p config =
  let key = Params.model_key p in
  let model =
    match st.last_model with
    | Some (k, m) when k = key ->
        record "model.rebuild"
          ~rename:(fun (m, reused) ->
            Some ((if reused then "model.rebuild" else "model.build"), model_attrs m))
          (fun () -> Cdr.Model.rebuild m config)
        |> fst
    | _ -> span "model.build" ~attrs:model_attrs (fun () -> Cdr.Model.build config)
  in
  st.last_model <- Some (key, model);
  model

(* Engine.with_degraded_retry *)
let with_retry (ctx : Cdr.Context.t) solve =
  let first : Markov.Solution.t = solve ctx in
  if first.Markov.Solution.converged then (first, false)
  else
    let ctx =
      Cdr.Context.override ~tol:(ctx.Cdr.Context.tol *. 1e3) ~init:first.Markov.Solution.pi ctx
    in
    (solve ctx, true)

(* Model.solve's multigrid branch, split into its two layers *)
let csr_solve st (ctx : Cdr.Context.t) (model : Cdr.Model.t) =
  let h0 = Cdr.Solver_cache.hits st.cache in
  let setup =
    span "solver_cache.setup"
      ~attrs:(fun _ -> [ ("hit", J.Bool (Cdr.Solver_cache.hits st.cache > h0)) ])
      (fun () ->
        Cdr.Solver_cache.setup st.cache ~smoother:ctx.Cdr.Context.smoother
          ~hierarchy:(fun () -> Cdr.Model.hierarchy model)
          model.Cdr.Model.chain)
  in
  let init =
    match ctx.Cdr.Context.init with
    | Some v when Array.length v = model.Cdr.Model.n_states -> Some v
    | _ -> None
  in
  let sol, _ =
    span "mg.solve"
      ~attrs:(fun (_, (s : Markov.Multigrid.stats)) ->
        [
          ("cycles", int_num s.Markov.Multigrid.cycles);
          ("sweeps", int_num s.Markov.Multigrid.smoothing_sweeps);
        ])
      (fun () ->
        Markov.Multigrid.solve_with ~tol:ctx.Cdr.Context.tol ?init ?cancel:ctx.Cdr.Context.cancel
          setup model.Cdr.Model.chain)
  in
  sol

(* Engine.get_kron_model: fresh factors, IAD setup transplanted on a key hit *)
let get_kron_model st p config =
  let key = Params.model_key p in
  let model = Cdr.Kron_model.build config in
  (match st.last_kron with
  | Some (k, prev) when k = key -> (
      match prev.Cdr.Kron_model.iad with
      | Some s when Markov.Op_multigrid.matches s model.Cdr.Kron_model.op ->
          model.Cdr.Kron_model.iad <- Some s
      | _ -> ())
  | _ -> ());
  st.last_kron <- Some (key, model);
  model

(* Engine.get_env_model *)
let get_env_model st p config env =
  let key =
    Printf.sprintf "%s|%h|%h|%h|%h|%s|%s" (Params.model_key p) p.Params.sigma_w
      p.Params.drift_mean p.Params.p01 p.Params.p10
      (Params.string_of_backend p.Params.backend)
      (J.to_string (Cdr_env.Env.to_json env))
  in
  let model =
    match st.last_env with
    | Some (k, m) when k = key -> m
    | prev ->
        let m = Cdr_env.Composed.build ~backend:p.Params.backend env config in
        (match prev with
        | Some (_, old) -> (
            match old.Cdr_env.Composed.iad with
            | Some s when Markov.Op_multigrid.matches s m.Cdr_env.Composed.op ->
                m.Cdr_env.Composed.iad <- Some s
            | _ -> ())
        | None -> ());
        m
  in
  st.last_env <- Some (key, model);
  model

let iterations_attr (s : Markov.Solution.t) = [ ("iterations", int_num s.Markov.Solution.iterations) ]

let sweep_json ~key ~value points =
  List.map
    (fun (pt : Cdr.Sweep.point) ->
      J.Obj
        [
          (key, value pt);
          ("ber", num pt.Cdr.Sweep.report.Cdr.Report.ber);
          ("iterations", int_num pt.Cdr.Sweep.report.Cdr.Report.iterations);
        ])
    points

let sweep_attrs points =
  [
    ("points", int_num (List.length points));
    ( "iterations",
      int_num
        (List.fold_left
           (fun acc (pt : Cdr.Sweep.point) -> acc + pt.Cdr.Sweep.report.Cdr.Report.iterations)
           0 points) );
  ]

(* Engine.run_kind, one public call per span *)
let run_kind st ctx (req : P.request) config =
  let p = req.P.params in
  match (req.P.kind, p.Params.backend) with
  | P.Analyze, `Kron ->
      let model = span "kron_model.build" (fun () -> get_kron_model st p config) in
      let sol, degraded =
        with_retry ctx (fun ctx ->
            span "kron_model.solve" ~attrs:iterations_attr (fun () ->
                Cdr.Kron_model.solve ~solver:`Multigrid ~ctx model))
      in
      let pi = sol.Markov.Solution.pi in
      let ber =
        span "ber.eval" (fun () ->
            Cdr.Ber.of_marginal config ~rho:(Cdr.Kron_model.phase_marginal model ~pi))
      in
      let mtbs = span "slip.flux" (fun () -> Cdr.Kron_model.mean_time_between_slips model ~pi) in
      ( J.Obj
          [
            ("ber", num ber);
            ("size", int_num (Cdr.Kron_model.n_states model));
            ("iterations", int_num sol.Markov.Solution.iterations);
            ("mean_bits_between_slips", num mtbs);
          ],
        degraded )
  | P.Analyze, `Csr ->
      let model = get_model st p config in
      let sol, degraded = with_retry ctx (fun ctx -> csr_solve st ctx model) in
      let pi = sol.Markov.Solution.pi in
      let ber =
        span "ber.eval" (fun () ->
            let rho = Cdr.Model.phase_marginal model ~pi in
            let ber = Cdr.Ber.of_marginal config ~rho in
            ignore (Cdr.Ber.eye_density config ~rho);
            ber)
      in
      let mtbs = span "slip.flux" (fun () -> Cdr.Cycle_slip.mean_time_between model ~pi) in
      ( J.Obj
          [
            ("ber", num ber);
            ("size", int_num model.Cdr.Model.n_states);
            ("iterations", int_num sol.Markov.Solution.iterations);
            ("mean_bits_between_slips", num mtbs);
          ],
        degraded )
  | P.Slip, `Csr ->
      let model = get_model st p config in
      let sol, degraded = with_retry ctx (fun ctx -> csr_solve st ctx model) in
      let pi = sol.Markov.Solution.pi in
      let rate, mtbs =
        span "slip.flux" (fun () ->
            (Cdr.Cycle_slip.rate model ~pi, Cdr.Cycle_slip.mean_time_between model ~pi))
      in
      let first = span "passage.first_slip" (fun () -> Cdr.Cycle_slip.mean_first_slip_time model) in
      ( J.Obj
          [
            ("slip_rate", num rate);
            ("mean_bits_between_slips", num mtbs);
            ("mean_bits_to_first_slip", num first);
          ],
        degraded )
  | P.Sweep lengths, `Csr ->
      let ctx = Cdr.Context.override ~strategy:Cdr.Context.warm ctx in
      let points =
        span "sweep.run" ~attrs:sweep_attrs (fun () ->
            Cdr.Sweep.counter_lengths ~solver:p.Params.solver ~ctx config lengths)
      in
      let best_k, best_ber = Cdr.Sweep.optimal_of_points points in
      ( J.Obj
          [
            ( "points",
              J.List
                (sweep_json ~key:"counter"
                   ~value:(fun pt -> int_num pt.Cdr.Sweep.config.Cdr.Config.counter_length)
                   points) );
            ("optimal", J.Obj [ ("counter", int_num best_k); ("ber", num best_ber) ]);
          ],
        false )
  | P.Sigma values, `Csr ->
      let ctx = Cdr.Context.override ~strategy:Cdr.Context.warm ctx in
      let points =
        span "sweep.run" ~attrs:sweep_attrs (fun () ->
            Cdr.Sweep.sigma_w_values ~solver:p.Params.solver ~ctx config values)
      in
      ( J.Obj
          [
            ( "points",
              J.List
                (sweep_json ~key:"sigma_w"
                   ~value:(fun pt -> num pt.Cdr.Sweep.config.Cdr.Config.sigma_w)
                   points) );
          ],
        false )
  | P.Env, _ ->
      let env =
        match p.Params.env with Some e -> e | None -> raise (Unsupported "env without params.env")
      in
      let model = span "env.build" (fun () -> get_env_model st p config env) in
      let solver = (p.Params.solver :> Cdr_env.Composed.solver) in
      let sol, degraded =
        with_retry ctx (fun ctx ->
            span "env.solve" ~attrs:iterations_attr (fun () ->
                Cdr_env.Composed.solve ~solver ~ctx model))
      in
      let pi = sol.Markov.Solution.pi in
      let payload =
        span "env.measures" (fun () ->
            let probs = Cdr_env.Composed.regime_probs model ~pi in
            let regime_ber = Cdr_env.Composed.regime_ber model ~pi in
            J.Obj
              [
                ("ber", num (Cdr_env.Composed.ber model ~pi));
                ("size", int_num model.Cdr_env.Composed.n_states);
                ("iterations", int_num sol.Markov.Solution.iterations);
                ("slip_rate", num (Cdr_env.Composed.slip_rate model ~pi));
                ( "mean_bits_between_slips",
                  num (Cdr_env.Composed.mean_bits_between_slips model ~pi) );
                ( "regimes",
                  J.List
                    (Array.to_list
                       (Array.mapi
                          (fun e (g : Cdr_env.Env.regime) ->
                            J.Obj
                              [
                                ("name", J.Str g.Cdr_env.Env.name);
                                ("prob", num probs.(e));
                                ("ber", num regime_ber.(e));
                              ])
                          model.Cdr_env.Composed.env.Cdr_env.Env.regimes)) );
              ])
      in
      (payload, degraded)
  | _ -> raise (Unsupported (P.kind_name req.P.kind ^ " on this backend"))

let encode_error ?id code message =
  span "protocol.encode" (fun () ->
      let r = P.error_response ?id ~code ~message () in
      ignore (J.to_string r);
      r)

(* Engine.handle minus admission and metrics: memo lookup, validation,
   solve, envelope, memo store *)
let replay_one st line =
  let started = now () in
  let parsed = span "protocol.parse" (fun () -> P.parse_request line) in
  match parsed with
  | Error (id, message) -> encode_error ?id `Bad_request message
  | Ok req -> (
      let id = req.P.id in
      let memo =
        match st.results with
        | None -> None
        | Some rc -> (
            match span "protocol.cache_key" (fun () -> P.cache_key req) with
            | None -> None
            | Some key ->
                let hit =
                  span "result_cache.find"
                    ~attrs:(fun r -> [ ("hit", J.Bool (Option.is_some r)) ])
                    (fun () -> Rc.find rc key)
                in
                Some (rc, key, hit))
      in
      match memo with
      | Some (_, _, Some stored) ->
          span "protocol.encode" (fun () ->
              let r = P.response_with_id stored id in
              ignore (J.to_string r);
              r)
      | _ -> (
          match span "params.to_config" (fun () -> Params.to_config req.P.params) with
          | Error message -> encode_error ~id `Bad_request message
          | Ok config -> (
              let ctx =
                Cdr.Context.make ~cache:st.cache ~smoother:req.P.params.Params.smoother
                  ~backend:req.P.params.Params.backend ()
              in
              let h0 = Cdr.Solver_cache.hits st.cache and m0 = Cdr.Solver_cache.misses st.cache in
              match run_kind st ctx req config with
              | payload, degraded ->
                  let response =
                    span "protocol.encode" (fun () ->
                        let r =
                          P.ok_response ~id ~kind:req.P.kind ~degraded
                            ~cache_hits:(Cdr.Solver_cache.hits st.cache - h0)
                            ~cache_misses:(Cdr.Solver_cache.misses st.cache - m0)
                            ~elapsed_ms:((now () -. started) *. 1e3)
                            payload
                        in
                        ignore (J.to_string r);
                        r)
                  in
                  (match memo with
                  | Some (rc, key, None) ->
                      span "result_cache.store" (fun () ->
                          Rc.store rc key (P.response_sans_id response))
                  | _ -> ());
                  response
              | exception Unsupported message -> encode_error ~id `Bad_request message
              | exception exn -> encode_error ~id `Internal (Printexc.to_string exn))))

let replay ~responses ~spans_out ~result_cache lines =
  let st =
    {
      cache = Cdr.Solver_cache.create ();
      results = Option.map (fun capacity -> Rc.create ~capacity ()) result_cache;
      last_model = None;
      last_kron = None;
      last_env = None;
    }
  in
  let oc = open_out responses in
  let t0 = now () in
  List.iteri
    (fun i line ->
      cur_req := i;
      let response = span "request" (fun () -> replay_one st line) in
      output_string oc (J.to_string (J.Obj [ ("i", int_num i); ("response", response) ]));
      output_char oc '\n')
    lines;
  let wall = now () -. t0 in
  close_out oc;
  let oc = open_out spans_out in
  List.iter
    (fun s ->
      output_string oc (J.to_string (span_json s));
      output_char oc '\n')
    (List.rev !spans);
  close_out oc;
  let n_spans = List.length !spans in
  let cost = span_cost () in
  let rc_counts =
    match st.results with
    | None -> []
    | Some rc ->
        [
          ( "result_cache",
            J.Obj
              [
                ("hits", int_num (Rc.hits rc));
                ("misses", int_num (Rc.misses rc));
                ("evictions", int_num (Rc.evictions rc));
              ] );
        ]
  in
  print_endline
    (J.to_string
       (J.Obj
          ([
             ("wall_s", num wall);
             ("requests", int_num (List.length lines));
             ("spans", int_num n_spans);
             ("span_cost_s", num cost);
           ]
          @ rc_counts)))

(* ---------- kernel rows ---------- *)

(* median ns per nonzero over [batches] timed batches of [reps] applies *)
let time_apply op =
  let n = Cdr_op.dim op in
  let x = Array.make n (1.0 /. float_of_int n) and y = Array.make n 0.0 in
  for _ = 1 to 3 do
    Cdr_op.vec_mul_into op x y
  done;
  let once () =
    let t0 = now () in
    Cdr_op.vec_mul_into op x y;
    now () -. t0
  in
  let reps = max 5 (int_of_float (0.05 /. Float.max 1e-7 (once ()))) in
  let batch () =
    let t0 = now () in
    for _ = 1 to reps do
      Cdr_op.vec_mul_into op x y
    done;
    (now () -. t0) /. float_of_int reps
  in
  let samples = Array.init 7 (fun _ -> batch ()) in
  Array.sort compare samples;
  samples.(3)

(* size of each copy-bandwidth array *)
let copy_mib = 64

let copy_gbps () =
  let open Bigarray in
  let n = copy_mib * 1024 * 1024 / 8 in
  let a = Array1.create Float64 C_layout n and b = Array1.create Float64 C_layout n in
  Array1.fill a 1.0;
  Array1.fill b 0.0;
  let samples =
    Array.init 5 (fun _ ->
        let t0 = now () in
        Array1.blit a b;
        now () -. t0)
  in
  Array.sort compare samples;
  (* a copy reads one array and writes the other *)
  float_of_int (2 * 8 * n) /. samples.(2) /. 1e9

let kernel_row ~ceiling ~bytes op =
  let seconds = time_apply op in
  let nnz = Cdr_op.nnz_estimate op in
  let gbps = bytes /. seconds /. 1e9 in
  J.Obj
    [
      ("label", J.Str (Cdr_op.label op));
      ("dim", int_num (Cdr_op.dim op));
      ("nnz", int_num nnz);
      ("apply_ns", num (seconds *. 1e9));
      ("apply_ns_per_nnz", num (seconds *. 1e9 /. float_of_int nnz));
      ("bytes_per_apply", num bytes);
      ("ops_per_byte", num (2.0 *. float_of_int nnz /. bytes));
      ("achieved_gbps", num gbps);
      ("bw_frac", num (gbps /. ceiling));
    ]

(* Streaming traffic of one apply from the array sizes, every stored element
   touched once. CSR (Csr.vec_mul_into scatter): values and column indices
   per nonzero (int32 columns once Csr_backend packs, at >= 2^14 nonzeros),
   row pointers, x read, y zero-filled and written. Kronecker
   (Kron_op.apply_into): y zero-filled, then per term one blit of x, one
   read+write pass per factor, and a read-read-write accumulation; the
   factor matrices are a few KB and ignored. *)
let csr_bytes op =
  let n = float_of_int (Cdr_op.dim op) and nnz = Cdr_op.nnz_estimate op in
  let col = if nnz >= 1 lsl 14 then 4.0 else 8.0 in
  (float_of_int nnz *. (8.0 +. col)) +. ((n +. 1.0) *. 8.0) +. (3.0 *. 8.0 *. n)

let kron_bytes ~terms op =
  (* Kron_model terms have three factors: D (x) C (x) G *)
  let n = float_of_int (Cdr_op.dim op) in
  (8.0 *. n) +. (float_of_int terms *. ((16.0 *. n) +. (3.0 *. 16.0 *. n) +. (24.0 *. n)))

let kernels line =
  let req =
    match P.parse_request line with Ok r -> r | Error (_, m) -> failwith ("kernels: " ^ m)
  in
  let config =
    match Params.to_config req.P.params with Ok c -> c | Error m -> failwith ("kernels: " ^ m)
  in
  let ceiling = copy_gbps () in
  let csr_op = Cdr.Model.operator (Cdr.Model.build config) in
  let kron = Cdr.Kron_model.build config in
  let terms = Sparse.Kron_op.n_terms kron.Cdr.Kron_model.kron in
  print_endline
    (J.to_string
       (J.Obj
          [
            ("copy_gbps", num ceiling);
            ("copy_array_mib", int_num copy_mib);
            ("csr", kernel_row ~ceiling ~bytes:(csr_bytes csr_op) csr_op);
            ( "kron_op",
              kernel_row ~ceiling ~bytes:(kron_bytes ~terms kron.Cdr.Kron_model.op)
                kron.Cdr.Kron_model.op );
          ]))

(* ---------- reference answers ---------- *)

let ref_ctx backend = Cdr.Context.make ~backend ()

let csr_point config =
  let model = Cdr.Model.build config in
  let sol = Cdr.Model.solve ~ctx:(ref_ctx `Csr) model in
  let pi = sol.Markov.Solution.pi in
  ( Cdr.Ber.of_marginal config ~rho:(Cdr.Model.phase_marginal model ~pi),
    Cdr.Cycle_slip.mean_time_between model ~pi )

let kron_point config =
  let model = Cdr.Kron_model.build config in
  let sol = Cdr.Kron_model.solve ~solver:`Multigrid ~ctx:(ref_ctx `Kron) model in
  let pi = sol.Markov.Solution.pi in
  ( Cdr.Ber.of_marginal config ~rho:(Cdr.Kron_model.phase_marginal model ~pi),
    Cdr.Kron_model.mean_time_between_slips model ~pi )

let env_point backend env config =
  let model = Cdr_env.Composed.build ~backend env config in
  let sol = Cdr_env.Composed.solve ~solver:`Multigrid ~ctx:(ref_ctx backend) model in
  let pi = sol.Markov.Solution.pi in
  (Cdr_env.Composed.ber model ~pi, Cdr_env.Composed.mean_bits_between_slips model ~pi)

let point_obj (ber, mtbs) = J.Obj [ ("ber", num ber); ("mean_bits_between_slips", num mtbs) ]

(* answers of one backend, shaped like the served payload *)
let answers solve_point (req : P.request) config =
  match req.P.kind with
  | P.Analyze | P.Env -> point_obj (solve_point config)
  | P.Slip -> J.Obj [ ("mean_bits_between_slips", num (snd (solve_point config))) ]
  | P.Sweep lengths ->
      J.Obj
        [
          ( "points",
            J.List
              (List.map
                 (fun k ->
                   let ber, _ = solve_point { config with Cdr.Config.counter_length = k } in
                   J.Obj [ ("counter", int_num k); ("ber", num ber) ])
                 lengths) );
        ]
  | P.Sigma values ->
      J.Obj
        [
          ( "points",
            J.List
              (List.map
                 (fun v ->
                   let ber, _ = solve_point { config with Cdr.Config.sigma_w = v } in
                   J.Obj [ ("sigma_w", num v); ("ber", num ber) ])
                 values) );
        ]
  | P.Scenarios | P.Stats -> failwith "no reference for this kind"

let refs lines =
  List.iter
    (fun line ->
      let req =
        match P.parse_request line with Ok r -> r | Error (_, m) -> failwith ("refs: " ^ m)
      in
      let config = match Params.to_config req.P.params with Ok c -> c | Error m -> failwith m in
      let point backend =
        match (req.P.kind, req.P.params.Params.env) with
        | P.Env, Some env -> env_point backend env
        | P.Env, None -> failwith "refs: env request without params.env"
        | _, _ -> ( match backend with `Csr -> csr_point | `Kron -> kron_point)
      in
      let key = match P.cache_key req with Some k -> k | None -> "" in
      print_endline
        (J.to_string
           (J.Obj
              [
                ("cache_key", J.Str key);
                ("csr", answers (point `Csr) req config);
                ("kron", answers (point `Kron) req config);
              ])))
    lines

(* ---------- command line ---------- *)

let () =
  let cmd = if Array.length Sys.argv > 1 then Sys.argv.(1) else "" in
  let responses = ref "" and spans_out = ref "" and result_cache = ref 0 in
  let specs =
    [
      ("--responses", Arg.Set_string responses, "FILE replayed responses (JSONL)");
      ("--spans-out", Arg.Set_string spans_out, "FILE spans (JSONL)");
      ("--result-cache", Arg.Set_int result_cache, "CAP result cache in front (0 = none)");
    ]
  in
  Arg.current := 1;
  Arg.parse specs (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "pbench CMD [options]";
  let lines = read_lines stdin in
  match cmd with
  | "replay" ->
      replay ~responses:!responses ~spans_out:!spans_out
        ~result_cache:(if !result_cache > 0 then Some !result_cache else None)
        lines
  | "kernels" -> (
      match lines with
      | line :: _ -> kernels line
      | [] -> failwith "kernels: no request on stdin")
  | "refs" -> refs lines
  | _ ->
      prerr_endline "usage: pbench (replay|kernels|refs) [options] < requests.jsonl";
      exit 2
