(* Tests for the serving layer (Cdr_svc) and the unified Context API:
   request parsing and strict rejection of unknown fields, admission-queue
   backpressure at the bound, deadline timeouts that leave the engine
   serving, structure batching hitting the shared solver cache, cache
   eviction accounting, and bitwise equivalence of Context-carried options
   against the historical per-call optional arguments. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let bits_equal a b =
  Array.length a = Array.length b
  && (let ok = ref true in
      Array.iteri
        (fun i x -> if Int64.bits_of_float x <> Int64.bits_of_float b.(i) then ok := false)
        a;
      !ok)

(* small enough that an analyze request runs in well under a second *)
let tiny_params =
  { Cdr_svc.Params.default with Cdr_svc.Params.grid = 32; phases = 16; counter = 2 }

let tiny_json extra =
  Cdr_obs.Jsonl.to_string
    (Cdr_obs.Jsonl.Obj
       ([ ("grid", Cdr_obs.Jsonl.Num 32.); ("phases", Num 16.); ("counter", Num 2.) ] @ extra))

(* ---------- Params ---------- *)

let test_params_roundtrip () =
  let p = { tiny_params with Cdr_svc.Params.sigma_w = 0.07; solver = `Power } in
  match Cdr_svc.Params.of_json (Cdr_svc.Params.to_json p) with
  | Error msg -> Alcotest.failf "roundtrip rejected: %s" msg
  | Ok p' -> check_bool "to_json/of_json roundtrips" true (p = p')

let test_params_unknown_field () =
  match Cdr_svc.Params.of_json (Cdr_obs.Jsonl.Obj [ ("gird", Num 64.) ]) with
  | Ok _ -> Alcotest.fail "typo'd field accepted"
  | Error msg -> check_bool "message names the field" true (String.length msg > 0)

let test_params_keys () =
  let p = tiny_params in
  let q = { p with Cdr_svc.Params.sigma_w = p.Cdr_svc.Params.sigma_w *. 2. } in
  check_string "noise delta keeps the structure key" (Cdr_svc.Params.structure_key p)
    (Cdr_svc.Params.structure_key q);
  let r = { p with Cdr_svc.Params.counter = 4 } in
  check_bool "counter change splits the structure key" true
    (Cdr_svc.Params.structure_key p <> Cdr_svc.Params.structure_key r);
  let s = { p with Cdr_svc.Params.smoother = `Colored } in
  check_bool "smoother is part of the structure key" true
    (Cdr_svc.Params.structure_key p <> Cdr_svc.Params.structure_key s);
  check_string "smoother does not split the model key" (Cdr_svc.Params.model_key p)
    (Cdr_svc.Params.model_key s);
  let k = { p with Cdr_svc.Params.backend = `Kron } in
  check_bool "backend is part of the structure key" true
    (Cdr_svc.Params.structure_key p <> Cdr_svc.Params.structure_key k);
  check_string "backend does not split the model key" (Cdr_svc.Params.model_key p)
    (Cdr_svc.Params.model_key k)

let test_params_backend_codec () =
  let p = { tiny_params with Cdr_svc.Params.backend = `Kron } in
  (match Cdr_svc.Params.of_json (Cdr_svc.Params.to_json p) with
  | Error msg -> Alcotest.failf "kron roundtrip rejected: %s" msg
  | Ok p' -> check_bool "backend survives the roundtrip" true (p = p'));
  match
    Cdr_svc.Params.of_json
      (Cdr_obs.Jsonl.Obj [ ("backend", Cdr_obs.Jsonl.Str "dense") ])
  with
  | Ok _ -> Alcotest.fail "unknown backend accepted"
  | Error msg -> check_bool "message mentions the value" true (String.length msg > 0)

(* ---------- Protocol.parse_request ---------- *)

let parse = Cdr_svc.Protocol.parse_request

let test_parse_ok () =
  match parse ("{\"id\":\"r1\",\"kind\":\"analyze\",\"params\":" ^ tiny_json [] ^ "}") with
  | exception _ -> Alcotest.fail "raised"
  | Error (_, msg) -> Alcotest.failf "rejected: %s" msg
  | Ok req ->
      check_string "id" "r1" req.Cdr_svc.Protocol.id;
      check_bool "kind" true (req.Cdr_svc.Protocol.kind = Cdr_svc.Protocol.Analyze);
      check_int "grid decoded" 32 req.Cdr_svc.Protocol.params.Cdr_svc.Params.grid

let test_parse_ok_defaults () =
  (match parse "{\"id\":\"r2\",\"kind\":\"sweep\"}" with
  | Error (_, msg) -> Alcotest.failf "rejected: %s" msg
  | Ok req ->
      check_bool "default lengths" true
        (req.Cdr_svc.Protocol.kind = Cdr_svc.Protocol.Sweep Cdr_svc.Protocol.default_lengths);
      check_bool "default params" true
        (req.Cdr_svc.Protocol.params = Cdr_svc.Params.default));
  match parse "{\"id\":\"r3\",\"kind\":\"sigma\",\"values\":[0.05]}" with
  | Error (_, msg) -> Alcotest.failf "rejected: %s" msg
  | Ok req ->
      check_bool "explicit values" true
        (req.Cdr_svc.Protocol.kind = Cdr_svc.Protocol.Sigma [ 0.05 ])

let reject line expect_id =
  match parse line with
  | Ok _ -> Alcotest.failf "accepted: %s" line
  | Error (id, msg) ->
      check_bool "rejection carries the id when parseable" true (id = expect_id);
      check_bool "rejection has a message" true (String.length msg > 0)

let test_parse_reject () =
  reject "not json" None;
  reject "[1,2]" None;
  reject "{\"kind\":\"analyze\"}" None;
  reject "{\"id\":\"\",\"kind\":\"analyze\"}" None;
  reject "{\"id\":\"x\",\"kind\":\"frobnicate\"}" (Some "x");
  reject "{\"id\":\"x\",\"kind\":\"analyze\",\"paramz\":{}}" (Some "x");
  reject "{\"id\":\"x\",\"kind\":\"analyze\",\"params\":{\"gird\":64}}" (Some "x");
  reject "{\"id\":\"x\",\"kind\":\"analyze\",\"lengths\":[2]}" (Some "x");
  reject "{\"id\":\"x\",\"kind\":\"sweep\",\"values\":[0.05]}" (Some "x");
  reject "{\"id\":\"x\",\"kind\":\"sweep\",\"lengths\":[]}" (Some "x");
  reject "{\"id\":\"x\",\"kind\":\"analyze\",\"deadline_ms\":-5}" (Some "x");
  reject "{\"id\":\"x\",\"kind\":\"analyze\",\"params\":{\"grid\":\"many\"}}" (Some "x")

(* ---------- Admission ---------- *)

let test_admission_backpressure () =
  let q = Cdr_svc.Admission.create ~bound:2 () in
  check_bool "push 1" true (Cdr_svc.Admission.push q 1 = `Ok);
  check_bool "push 2" true (Cdr_svc.Admission.push q 2 = `Ok);
  check_bool "push 3 refused at bound 2" true (Cdr_svc.Admission.push q 3 = `Overloaded);
  check_bool "pop returns fifo head" true (Cdr_svc.Admission.pop q = Some 1);
  check_bool "freed capacity admits again" true (Cdr_svc.Admission.push q 4 = `Ok);
  check_bool "drain empties in order" true (Cdr_svc.Admission.drain q = [ 2; 4 ]);
  Cdr_svc.Admission.close q;
  check_bool "push after close" true (Cdr_svc.Admission.push q 5 = `Closed);
  check_bool "pop after close on empty" true (Cdr_svc.Admission.pop q = None);
  (* closed but non-empty queues still drain: shutdown answers what it
     admitted *)
  let q2 = Cdr_svc.Admission.create ~bound:2 () in
  ignore (Cdr_svc.Admission.push q2 7);
  Cdr_svc.Admission.close q2;
  check_bool "pop drains queued work after close" true (Cdr_svc.Admission.pop q2 = Some 7);
  check_bool "then reports closed" true (Cdr_svc.Admission.pop q2 = None)

(* ---------- Engine ---------- *)

let reply_capture () =
  let captured = ref [] in
  ((fun json -> captured := json :: !captured), fun () -> List.rev !captured)

let field name json =
  match Cdr_obs.Jsonl.member name json with
  | Some v -> v
  | None -> Alcotest.failf "response lacks %S" name

let is_ok json = field "ok" json = Cdr_obs.Jsonl.Bool true

let error_code json =
  match Cdr_obs.Jsonl.member "code" (field "error" json) with
  | Some (Cdr_obs.Jsonl.Str s) -> s
  | _ -> Alcotest.fail "error without code"

let analyze_req ?(id = "t") ?(params = tiny_params) () =
  {
    Cdr_svc.Protocol.id;
    kind = Cdr_svc.Protocol.Analyze;
    params;
    deadline_ms = None;
    hold_ms = None;
  }

let test_engine_timeout_then_serve () =
  let engine = Cdr_svc.Engine.create () in
  let reply, replies = reply_capture () in
  (* expired before it starts: queue wait counts against the deadline *)
  Cdr_svc.Engine.handle engine
    {
      Cdr_svc.Engine.request = analyze_req ~id:"late" ();
      deadline = Some (Cdr_obs.Clock.monotonic () -. 1.);
      admitted = Cdr_obs.Clock.monotonic ();
      reply;
    };
  (* the engine must keep serving afterwards *)
  Cdr_svc.Engine.handle engine
    {
      Cdr_svc.Engine.request = analyze_req ~id:"after" ();
      deadline = None;
      admitted = Cdr_obs.Clock.monotonic ();
      reply;
    };
  match replies () with
  | [ timeout; ok ] ->
      check_bool "first timed out" false (is_ok timeout);
      check_string "timeout code" "timeout" (error_code timeout);
      check_bool "second served" true (is_ok ok)
  | rs -> Alcotest.failf "expected 2 replies, got %d" (List.length rs)

(* the first-passage slip fixture: its hitting-time solve runs for minutes
   without converging, so a request deadline must cut it short *)
let test_engine_slip_deadline () =
  let line =
    {|{"id":"slip-deadline","kind":"slip","deadline_ms":5000,|}
    ^ {|"params":{"version":2,"grid":32,"loop":{"phases":16,"counter":4}}}|}
  in
  let req =
    match parse line with Ok r -> r | Error (_, msg) -> Alcotest.failf "rejected: %s" msg
  in
  let engine = Cdr_svc.Engine.create () in
  let reply, replies = reply_capture () in
  let admitted = Cdr_obs.Clock.monotonic () in
  let deadline =
    Option.map (fun ms -> admitted +. (ms /. 1000.)) req.Cdr_svc.Protocol.deadline_ms
  in
  Cdr_svc.Engine.handle engine { Cdr_svc.Engine.request = req; deadline; admitted; reply };
  let elapsed = Cdr_obs.Clock.monotonic () -. admitted in
  match replies () with
  | [ r ] ->
      check_string "timeout code" "timeout" (error_code r);
      check_bool (Printf.sprintf "answered within 15 s (took %.1f s)" elapsed) true (elapsed < 15.)
  | rs -> Alcotest.failf "expected 1 reply, got %d" (List.length rs)

let test_engine_batch_cache_hits () =
  let engine = Cdr_svc.Engine.create () in
  let reply, replies = reply_capture () in
  (* vary the transition probability, not sigma_w: a sigma delta can move
     the reachable state set (fresh pattern, no reuse), while p_transition
     keeps every nonzero in place — the noise-only refill path *)
  let ps = [ 0.5; 0.45; 0.4 ] in
  let jobs =
    List.mapi
      (fun i p ->
        {
          Cdr_svc.Engine.request =
            analyze_req
              ~id:(Printf.sprintf "b%d" i)
              ~params:{ tiny_params with Cdr_svc.Params.p01 = p; p10 = p }
              ();
          deadline = None;
          admitted = Cdr_obs.Clock.monotonic ();
          reply;
        })
      ps
  in
  Cdr_svc.Engine.process engine jobs;
  let rs = replies () in
  check_int "every job answered" (List.length ps) (List.length rs);
  List.iter (fun r -> check_bool "answered ok" true (is_ok r)) rs;
  check_bool "same-structure batch hits the shared cache" true
    (Cdr.Solver_cache.hits (Cdr_svc.Engine.cache engine) > 0);
  (* the per-response cache delta reports the hits too *)
  let hits r =
    match Cdr_obs.Jsonl.(member "hits" (field "cache" r)) with
    | Some (Cdr_obs.Jsonl.Num h) -> int_of_float h
    | _ -> Alcotest.fail "no cache.hits"
  in
  check_bool "later responses report hits" true (List.exists (fun r -> hits r > 0) rs)

let test_engine_bad_config () =
  let engine = Cdr_svc.Engine.create () in
  let reply, replies = reply_capture () in
  (* grid not a multiple of phases: Config.validate must reject it *)
  Cdr_svc.Engine.handle engine
    {
      Cdr_svc.Engine.request =
        analyze_req ~id:"bad" ~params:{ tiny_params with Cdr_svc.Params.phases = 7 } ();
      deadline = None;
      admitted = Cdr_obs.Clock.monotonic ();
      reply;
    };
  match replies () with
  | [ r ] ->
      check_bool "rejected" false (is_ok r);
      check_string "bad_request code" "bad_request" (error_code r)
  | rs -> Alcotest.failf "expected 1 reply, got %d" (List.length rs)

let kron_params = { tiny_params with Cdr_svc.Params.backend = `Kron }

let test_engine_kron_analyze () =
  let engine = Cdr_svc.Engine.create () in
  let reply, replies = reply_capture () in
  let submit id params =
    Cdr_svc.Engine.handle engine
      {
        Cdr_svc.Engine.request = analyze_req ~id ~params ();
        deadline = None;
        admitted = Cdr_obs.Clock.monotonic ();
        reply;
      }
  in
  submit "kron" kron_params;
  submit "csr" tiny_params;
  match replies () with
  | [ kron; csr ] ->
      check_bool "kron analyze served" true (is_ok kron);
      check_bool "csr analyze served" true (is_ok csr);
      let num name r =
        match Cdr_obs.Jsonl.member name (field "result" r) with
        | Some (Cdr_obs.Jsonl.Num v) -> v
        | _ -> Alcotest.failf "result lacks %S" name
      in
      (* same response shape as the csr path, BER at solver tolerance *)
      check_bool "ber agrees across backends" true
        (Float.abs (num "ber" kron -. num "ber" csr)
         /. Float.max (num "ber" csr) 1e-300
        < 1e-6);
      check_bool "kron solves the full product space" true
        (num "size" kron >= num "size" csr);
      check_bool "kron reports slips" true (num "mean_bits_between_slips" kron > 0.0)
  | rs -> Alcotest.failf "expected 2 replies, got %d" (List.length rs)

let test_engine_kron_unsupported_kinds () =
  let engine = Cdr_svc.Engine.create () in
  let reply, replies = reply_capture () in
  let submit id kind =
    Cdr_svc.Engine.handle engine
      {
        Cdr_svc.Engine.request =
          { (analyze_req ~id ~params:kron_params ()) with Cdr_svc.Protocol.kind };
        deadline = None;
        admitted = Cdr_obs.Clock.monotonic ();
        reply;
      }
  in
  submit "slip" Cdr_svc.Protocol.Slip;
  submit "sweep" (Cdr_svc.Protocol.Sweep Cdr_svc.Protocol.default_lengths);
  submit "sigma" (Cdr_svc.Protocol.Sigma [ 0.05 ]);
  (* a client mistake, not an engine failure: the engine keeps serving *)
  submit "after" Cdr_svc.Protocol.Analyze;
  match replies () with
  | [ slip; sweep; sigma; after ] ->
      List.iter
        (fun r ->
          check_bool "rejected" false (is_ok r);
          check_string "bad_request code" "bad_request" (error_code r))
        [ slip; sweep; sigma ];
      check_bool "engine still serves kron analyze" true (is_ok after)
  | rs -> Alcotest.failf "expected 4 replies, got %d" (List.length rs)

(* ---------- Stats round-trip ---------- *)

(* A "stats" request parses off the wire, flows through Engine.handle like a
   solve, and answers with a metrics/uptime snapshot that already reflects
   the requests handled before it. *)
let test_engine_stats_roundtrip () =
  (match parse "{\"id\":\"s1\",\"kind\":\"stats\"}" with
  | Error (_, msg) -> Alcotest.failf "stats request rejected: %s" msg
  | Ok req ->
      check_bool "kind is stats" true (req.Cdr_svc.Protocol.kind = Cdr_svc.Protocol.Stats));
  (* sweep/sigma-only fields stay rejected on a stats request *)
  reject "{\"id\":\"s2\",\"kind\":\"stats\",\"lengths\":[2]}" (Some "s2");
  reject "{\"id\":\"s3\",\"kind\":\"stats\",\"values\":[0.05]}" (Some "s3");
  let engine = Cdr_svc.Engine.create () in
  let reply, replies = reply_capture () in
  let submit req =
    Cdr_svc.Engine.handle engine
      {
        Cdr_svc.Engine.request = req;
        deadline = None;
        admitted = Cdr_obs.Clock.monotonic ();
        reply;
      }
  in
  submit (analyze_req ~id:"warm" ());
  submit { (analyze_req ~id:"snap" ()) with Cdr_svc.Protocol.kind = Cdr_svc.Protocol.Stats };
  match replies () with
  | [ warm; snap ] -> (
      check_bool "analyze ok" true (is_ok warm);
      check_bool "stats ok" true (is_ok snap);
      let result = field "result" snap in
      (match Cdr_obs.Jsonl.member "uptime_s" result with
      | Some (Cdr_obs.Jsonl.Num u) -> check_bool "uptime positive" true (u > 0.0)
      | _ -> Alcotest.fail "stats lacks uptime_s");
      (match Cdr_obs.Jsonl.member "queue_depth" result with
      | Some (Cdr_obs.Jsonl.Num _) -> ()
      | _ -> Alcotest.fail "stats lacks queue_depth");
      (* the warm analyze is already visible in the request counters *)
      (match Cdr_obs.Jsonl.member "requests" result with
      | Some (Cdr_obs.Jsonl.List rows) ->
          check_bool "analyze/ok counted" true
            (List.exists
               (fun row ->
                 Cdr_obs.Jsonl.member "kind" row = Some (Cdr_obs.Jsonl.Str "analyze")
                 && Cdr_obs.Jsonl.member "status" row = Some (Cdr_obs.Jsonl.Str "ok"))
               rows)
      | _ -> Alcotest.fail "stats lacks requests");
      (* ... and in the latency histograms, with interpolated quantiles *)
      (match Cdr_obs.Jsonl.member "latency_seconds" result with
      | Some (Cdr_obs.Jsonl.List (row :: _)) ->
          List.iter
            (fun f ->
              match Cdr_obs.Jsonl.member f row with
              | Some (Cdr_obs.Jsonl.Num v) ->
                  check_bool (f ^ " non-negative") true (v >= 0.0)
              | _ -> Alcotest.failf "latency row lacks %s" f)
            [ "mean"; "p50"; "p95"; "p99" ]
      | _ -> Alcotest.fail "stats lacks latency_seconds rows");
      match Cdr_obs.Jsonl.member "cache" result with
      | Some cache ->
          check_bool "cache entry count reported" true
            (Cdr_obs.Jsonl.member "entries" cache <> None)
      | None -> Alcotest.fail "stats lacks cache")
  | rs -> Alcotest.failf "expected 2 replies, got %d" (List.length rs)

(* ---------- Solver_cache eviction accounting ---------- *)

let test_cache_evictions () =
  let cache = Cdr.Solver_cache.create ~max_entries:1 () in
  let model_of counter =
    Cdr.Model.build
      (match Cdr_svc.Params.to_config { tiny_params with Cdr_svc.Params.counter } with
      | Ok cfg -> cfg
      | Error msg -> Alcotest.failf "config: %s" msg)
  in
  let m2 = model_of 2 and m3 = model_of 3 in
  let setup_of m =
    ignore
      (Cdr.Solver_cache.setup cache
         ~hierarchy:(fun () -> Cdr.Model.hierarchy m)
         m.Cdr.Model.chain)
  in
  setup_of m2;
  check_int "no eviction while capacity lasts" 0 (Cdr.Solver_cache.evictions cache);
  setup_of m3;
  check_int "second structure evicts the first" 1 (Cdr.Solver_cache.evictions cache);
  check_int "size stays at the bound" 1 (Cdr.Solver_cache.length cache);
  setup_of m2;
  check_int "round trip evicts again" 2 (Cdr.Solver_cache.evictions cache)

(* ---------- Context vs per-call optional arguments ---------- *)

let test_context_equivalence () =
  let cfg =
    match Cdr_svc.Params.to_config tiny_params with
    | Ok cfg -> cfg
    | Error msg -> Alcotest.failf "config: %s" msg
  in
  let via_args = Cdr.Report.run ~solver:`Multigrid ~smoother:`Lex cfg in
  let ctx = Cdr.Context.make ~smoother:`Lex () in
  let via_ctx = Cdr.Report.run ~solver:`Multigrid ~ctx cfg in
  check_bool "ber bitwise equal" true
    (Int64.bits_of_float via_args.Cdr.Report.ber = Int64.bits_of_float via_ctx.Cdr.Report.ber);
  check_int "iterations equal" via_args.Cdr.Report.iterations via_ctx.Cdr.Report.iterations;
  check_bool "phase density bitwise equal" true
    (bits_equal via_args.Cdr.Report.phase_density via_ctx.Cdr.Report.phase_density)

let () =
  Alcotest.run "svc"
    [
      ( "params",
        [
          Alcotest.test_case "json roundtrip" `Quick test_params_roundtrip;
          Alcotest.test_case "unknown field rejected" `Quick test_params_unknown_field;
          Alcotest.test_case "backend codec" `Quick test_params_backend_codec;
          Alcotest.test_case "structure and model keys" `Quick test_params_keys;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "well-formed request" `Quick test_parse_ok;
          Alcotest.test_case "defaults fill in" `Quick test_parse_ok_defaults;
          Alcotest.test_case "malformed and unknown-field requests" `Quick test_parse_reject;
        ] );
      ( "admission",
        [ Alcotest.test_case "backpressure at bound 2" `Quick test_admission_backpressure ] );
      ( "engine",
        [
          Alcotest.test_case "timeout then keeps serving" `Quick test_engine_timeout_then_serve;
          Alcotest.test_case "slip first passage honours its deadline" `Quick
            test_engine_slip_deadline;
          Alcotest.test_case "same-structure batch hits cache" `Quick
            test_engine_batch_cache_hits;
          Alcotest.test_case "invalid config is bad_request" `Quick test_engine_bad_config;
          Alcotest.test_case "kron analyze matches csr" `Quick test_engine_kron_analyze;
          Alcotest.test_case "kron-unsupported kinds are bad_request" `Quick
            test_engine_kron_unsupported_kinds;
          Alcotest.test_case "stats round-trip" `Quick test_engine_stats_roundtrip;
        ] );
      ( "cache",
        [ Alcotest.test_case "eviction counter" `Quick test_cache_evictions ] );
      ( "context",
        [ Alcotest.test_case "bitwise equals optional args" `Quick test_context_equivalence ] );
    ]
