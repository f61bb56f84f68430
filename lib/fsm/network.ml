type source = { source_name : string; pmf : Prob.Pmf.t }

type signal = From_source of int | From_component of int | From_state of int

type t = {
  sources : source array;
  components : Component.t array;
  wiring : signal array array;
  strides : int array; (* mixed-radix strides for state encoding *)
  total_states : int;
}

let create ~sources ~components ~wiring =
  let n_components = Array.length components in
  if Array.length wiring <> n_components then
    invalid_arg "Network.create: wiring must have one entry per component";
  Array.iteri
    (fun k wires ->
      let comp = components.(k) in
      if Array.length wires <> comp.Component.n_inputs then
        invalid_arg
          (Printf.sprintf "Network.create: component %s expects %d inputs, wired %d"
             comp.Component.name comp.Component.n_inputs (Array.length wires));
      Array.iteri
        (fun port wire ->
          let card = comp.Component.input_cards.(port) in
          match wire with
          | From_source s ->
              if s < 0 || s >= Array.length sources then
                invalid_arg "Network.create: source index out of range";
              let pmf = sources.(s).pmf in
              if Prob.Pmf.min_support pmf < 0 || Prob.Pmf.max_support pmf >= card then
                invalid_arg
                  (Printf.sprintf
                     "Network.create: source %s emits symbols outside [0,%d) required by %s port %d"
                     sources.(s).source_name card comp.Component.name port)
          | From_component c ->
              if c < 0 || c >= n_components then
                invalid_arg "Network.create: component index out of range";
              if c >= k then
                invalid_arg
                  (Printf.sprintf
                     "Network.create: wiring is not feed-forward (%s reads component %d)"
                     comp.Component.name c);
              if components.(c).Component.n_outputs > card then
                invalid_arg
                  (Printf.sprintf
                     "Network.create: %s outputs %d symbols but %s port %d accepts %d"
                     components.(c).Component.name components.(c).Component.n_outputs
                     comp.Component.name port card)
          | From_state c ->
              if c < 0 || c >= n_components then
                invalid_arg "Network.create: state-feedback index out of range";
              if components.(c).Component.n_states > card then
                invalid_arg
                  (Printf.sprintf
                     "Network.create: %s has %d states but %s port %d accepts %d"
                     components.(c).Component.name components.(c).Component.n_states
                     comp.Component.name port card))
        wires)
    wiring;
  let strides = Array.make n_components 1 in
  let total = ref 1 in
  for k = n_components - 1 downto 0 do
    strides.(k) <- !total;
    total := !total * components.(k).Component.n_states
  done;
  { sources; components; wiring; strides; total_states = !total }

let n_global_states t = t.total_states

let encode t states =
  if Array.length states <> Array.length t.components then
    invalid_arg "Network.encode: wrong arity";
  let acc = ref 0 in
  Array.iteri
    (fun k s ->
      if s < 0 || s >= t.components.(k).Component.n_states then
        invalid_arg "Network.encode: component state out of range";
      acc := !acc + (s * t.strides.(k)))
    states;
  !acc

let decode t code =
  Array.mapi (fun k comp -> code / t.strides.(k) mod comp.Component.n_states) t.components

(* Resolve one clock cycle given fixed noise symbols: returns next states.
   [outputs] is filled as components evaluate in order. [buffers] holds one
   preallocated input array per component — [advance] runs once per (state,
   joint noise outcome) pair during chain construction, so it must not
   allocate. *)
let advance t ~buffers ~noise ~states ~next ~outputs =
  Array.iteri
    (fun k comp ->
      let wires = t.wiring.(k) in
      let inputs = buffers.(k) in
      Array.iteri
        (fun port wire ->
          inputs.(port) <-
            (match wire with
            | From_source s -> noise.(s)
            | From_component c -> outputs.(c)
            | From_state c -> states.(c)))
        wires;
      let s', out = comp.Component.step states.(k) inputs in
      next.(k) <- s';
      outputs.(k) <- out)
    t.components

let make_buffers t = Array.map (fun c -> Array.make c.Component.n_inputs 0) t.components

(* Enumerate the joint support of all noise sources, calling [f symbols prob]
   for every combination with positive probability. *)
let iter_joint_noise t f =
  let n = Array.length t.sources in
  let symbols = Array.make n 0 in
  let rec go k prob =
    if k = n then f symbols prob
    else
      Prob.Pmf.iter t.sources.(k).pmf (fun label w ->
          symbols.(k) <- label;
          go (k + 1) (prob *. w))
  in
  go 0 1.0

type built = {
  chain : Markov.Chain.t;
  states : int array array;
  index_of : int array -> int option;
}

let build_chain t ~initial =
  if Array.length initial <> Array.length t.components then
    invalid_arg "Network.build_chain: initial state has wrong arity";
  let code0 = encode t initial in
  let index_table : (int, int) Hashtbl.t = Hashtbl.create 1024 in
  let state_list = ref [] in
  let n_found = ref 0 in
  let register code =
    match Hashtbl.find_opt index_table code with
    | Some idx -> idx
    | None ->
        let idx = !n_found in
        Hashtbl.add index_table code idx;
        state_list := code :: !state_list;
        incr n_found;
        idx
  in
  ignore (register code0);
  (* BFS; indices are assigned on first discovery so rows come out in BFS
     order. The joint-noise enumeration revisits the same successor many
     times (distinct noise symbols, same propagated state), so each row is
     merged in a small per-row table before entering the global accumulator. *)
  let rows = ref [] in
  let queue = Queue.create () in
  Queue.add code0 queue;
  let visited = Hashtbl.create 1024 in
  Hashtbl.add visited code0 ();
  let next = Array.make (Array.length t.components) 0 in
  let outputs = Array.make (Array.length t.components) 0 in
  let buffers = make_buffers t in
  while not (Queue.is_empty queue) do
    let code = Queue.pop queue in
    let states = decode t code in
    let row = register code in
    let row_acc : (int, float) Hashtbl.t = Hashtbl.create 32 in
    iter_joint_noise t (fun noise prob ->
        advance t ~buffers ~noise ~states ~next ~outputs;
        let code' = encode t next in
        let prev = Option.value ~default:0.0 (Hashtbl.find_opt row_acc code') in
        Hashtbl.replace row_acc code' (prev +. prob);
        if not (Hashtbl.mem visited code') then begin
          Hashtbl.add visited code' ();
          Queue.add code' queue
        end);
    let entries = Hashtbl.fold (fun code' p acc -> (register code', p) :: acc) row_acc [] in
    rows := (row, entries) :: !rows
  done;
  let n = !n_found in
  let acc = Sparse.Coo.create ~rows:n ~cols:n in
  List.iter
    (fun (row, entries) -> List.iter (fun (col, p) -> Sparse.Coo.add acc ~row ~col p) entries)
    !rows;
  let chain = Markov.Chain.of_csr ~tol:1e-9 (Sparse.Coo.to_csr acc) in
  let codes = Array.of_list (List.rev !state_list) in
  let states = Array.map (decode t) codes in
  let index_of s =
    match Hashtbl.find_opt index_table (encode t s) with Some idx -> Some idx | None -> None
  in
  { chain; states; index_of }

let simulate t ~rng ~initial ~steps ~on_step =
  if Array.length initial <> Array.length t.components then
    invalid_arg "Network.simulate: initial state has wrong arity";
  let states = Array.copy initial in
  let next = Array.make (Array.length t.components) 0 in
  let outputs = Array.make (Array.length t.components) 0 in
  let noise = Array.make (Array.length t.sources) 0 in
  let buffers = make_buffers t in
  for _ = 1 to steps do
    Array.iteri (fun k src -> noise.(k) <- Prob.Rng.pmf rng src.pmf) t.sources;
    advance t ~buffers ~noise ~states ~next ~outputs;
    on_step states outputs;
    Array.blit next 0 states 0 (Array.length states)
  done

let to_dot t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "digraph fsm_network {\n  rankdir=LR;\n";
  Array.iteri
    (fun s src ->
      Buffer.add_string buf
        (Printf.sprintf "  src%d [label=\"%s\\n%d atoms\", shape=ellipse];\n" s src.source_name
           (Prob.Pmf.cardinal src.pmf)))
    t.sources;
  Array.iteri
    (fun k comp ->
      Buffer.add_string buf
        (Printf.sprintf "  comp%d [label=\"%s\\n%d states\", shape=box];\n" k
           comp.Component.name comp.Component.n_states))
    t.components;
  Array.iteri
    (fun k wires ->
      Array.iteri
        (fun port wire ->
          let edge =
            match wire with
            | From_source s -> Printf.sprintf "  src%d -> comp%d [label=\"p%d\"];\n" s k port
            | From_component c -> Printf.sprintf "  comp%d -> comp%d [label=\"p%d\"];\n" c k port
            | From_state c ->
                Printf.sprintf "  comp%d -> comp%d [label=\"p%d (state)\", style=dashed];\n" c k
                  port
          in
          Buffer.add_string buf edge)
        wires)
    t.wiring;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let pp_summary ppf t =
  Format.fprintf ppf "@[<v>network: %d sources, %d components, %d product states@,"
    (Array.length t.sources) (Array.length t.components) t.total_states;
  Array.iter
    (fun s ->
      Format.fprintf ppf "  source %s: %d atoms@," s.source_name (Prob.Pmf.cardinal s.pmf))
    t.sources;
  Array.iter
    (fun c ->
      Format.fprintf ppf "  component %s: %d states, %d inputs, %d outputs@," c.Component.name
        c.Component.n_states c.Component.n_inputs c.Component.n_outputs)
    t.components;
  Format.fprintf ppf "@]"
