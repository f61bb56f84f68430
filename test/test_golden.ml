(* Golden digests of the chain layer's numerical outputs: the stationary
   vectors of the CSR, Kronecker and environment-composed models under
   every solve path, and every multigrid hierarchy partition map. Each
   digest is the MD5 of the exact bit patterns (float bits, int labels), so
   a refactor of the shared hierarchy / solve / measure code must reproduce
   the outputs bit for bit to keep these green. *)

module Composed = Cdr_env.Composed

let cfg32 = { Cdr.Config.default with Cdr.Config.grid_points = 32 }
let cfg16 = { Cdr.Config.default with Cdr.Config.grid_points = 16 }

let digest_floats (v : Linalg.Vec.t) =
  let b = Buffer.create (8 * Array.length v) in
  Array.iter (fun x -> Buffer.add_int64_le b (Int64.bits_of_float x)) v;
  Digest.to_hex (Digest.string (Buffer.contents b))

let digest_hierarchy (levels : Markov.Partition.t list) =
  let b = Buffer.create 4096 in
  List.iter
    (fun (p : Markov.Partition.t) ->
      Buffer.add_int64_le b (Int64.of_int p.Markov.Partition.n_coarse);
      Array.iter (fun k -> Buffer.add_int64_le b (Int64.of_int k)) p.Markov.Partition.map)
    levels;
  Printf.sprintf "%d:%s" (List.length levels) (Digest.to_hex (Digest.string (Buffer.contents b)))

let pi (sol : Markov.Solution.t) = sol.Markov.Solution.pi

let model_pi () =
  let model = Cdr.Model.build cfg32 in
  let cache = Cdr.Solver_cache.create () in
  [
    ("model multigrid", digest_floats (pi (Cdr.Model.solve model)));
    ( "model multigrid cached",
      digest_floats (pi (Cdr.Model.solve ~ctx:(Cdr.Context.make ~cache ()) model)) );
    ("model power", digest_floats (pi (Cdr.Model.solve ~solver:`Power model)));
  ]

let kron_pi () =
  let model = Cdr.Kron_model.build cfg32 in
  let cold = Cdr.Kron_model.solve ~solver:`Multigrid model in
  let memo = Cdr.Kron_model.solve ~solver:`Multigrid model in
  [
    ("kron multigrid cold", digest_floats (pi cold));
    ("kron multigrid memo", digest_floats (pi memo));
    ("kron power", digest_floats (pi (Cdr.Kron_model.solve ~solver:`Power model)));
  ]

let composed_pi () =
  List.map
    (fun backend ->
      let model = Composed.build ~backend (Cdr_env.Env.bursty ()) cfg16 in
      ( "composed bursty " ^ Cdr_op.kind_string backend,
        digest_floats (pi (Composed.solve model)) ))
    [ `Csr; `Kron ]

let hierarchies () =
  [
    ("model hierarchy", digest_hierarchy (Cdr.Model.hierarchy (Cdr.Model.build cfg32)));
    ("kron hierarchy", digest_hierarchy (Cdr.Kron_model.hierarchy (Cdr.Kron_model.build cfg32)));
    ( "composed csr hierarchy",
      digest_hierarchy
        (Composed.hierarchy (Composed.build ~backend:`Csr (Cdr_env.Env.bursty ()) cfg32)) );
    ( "composed kron hierarchy",
      digest_hierarchy
        (Composed.hierarchy (Composed.build ~backend:`Kron (Cdr_env.Env.bursty ()) cfg32)) );
  ]

(* generated at the commit that introduced this file, before the chain
   layer was shared between the three model types *)
let expected =
  [
    ("model multigrid", "a5b5280eeae707b04aba978afc7c1764");
    ("model multigrid cached", "a5b5280eeae707b04aba978afc7c1764");
    ("model power", "e5f43d110d46e049ae82929e80dd03d8");
    ("kron multigrid cold", "9ee879641466be475235051a1656392f");
    ("kron multigrid memo", "9ee879641466be475235051a1656392f");
    ("kron power", "7231b0e3a221d611b9ef60b574c4a48b");
    ("composed bursty csr", "2afb158bf16e55321da416624f7d1c9c");
    ("composed bursty kron", "63991acbde9567157c4895718aabe99a");
    ("model hierarchy", "4:6a46d74dbf2fd61e4d4dcbea3f267439");
    ("kron hierarchy", "4:01f94e35551b97cf899a0a2f7bc3a519");
    ("composed csr hierarchy", "5:edef48bf3f8cc40c2da71f5b955acc7d");
    ("composed kron hierarchy", "5:81bc155b8738797cc8232b28e4fd51f2");
  ]

let case name compute =
  Alcotest.test_case name `Quick (fun () ->
      List.iter
        (fun (label, got) -> Alcotest.(check string) label (List.assoc label expected) got)
        (compute ()))

let () =
  Alcotest.run "golden"
    [
      ( "digests",
        [
          case "model solves" model_pi;
          case "kron solves" kron_pi;
          case "composed solves" composed_pi;
          case "hierarchy maps" hierarchies;
        ] );
    ]
