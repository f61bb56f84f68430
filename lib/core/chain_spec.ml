type memo = {
  get : unit -> Markov.Op_multigrid.setup option;
  set : Markov.Op_multigrid.setup -> unit;
}

let no_memo = { get = (fun () -> None); set = ignore }

type t = {
  op : Cdr_op.t;
  chain : Markov.Chain.t option;
  lead : int -> int;
  counter : int -> int;
  phase : int -> int;
  config : Config.t;
  iad : memo;
}

let n_states t = Cdr_op.dim t.op

type solver =
  [ `Multigrid | `Power | `Gauss_seidel | `Jacobi | `Sor of float | `Aggregation | `Arnoldi ]

let solver_name : [< solver ] -> string = function
  | `Multigrid -> "multigrid"
  | `Power -> "power"
  | `Gauss_seidel -> "gauss-seidel"
  | `Jacobi -> "jacobi"
  | `Sor _ -> "sor"
  | `Arnoldi -> "arnoldi"
  | `Aggregation -> "aggregation"

(* Each level works on flat per-block coordinate arrays. Coarse keys pack
   into [((lead * n_counter) + counter) * n_phase + phase] over the level's
   coordinate ranges, [block_of_key] numbers them by first appearance, and
   the next level's coordinates are the coarse keys in that order. *)
let hierarchy t =
  let n = n_states t in
  let max_of a = Array.fold_left max 0 a in
  let rec go n lead counter phase acc =
    let max_phase = max_of phase and max_counter = max_of counter in
    if n <= Markov.Gth.max_direct_size || (max_phase < 1 && max_counter < 1) then List.rev acc
    else begin
      let counter, phase =
        if max_phase >= 1 then (counter, Array.map (fun p -> p / 2) phase)
        else (Array.map (fun c -> c / 2) counter, phase)
      in
      let n_counter = max_of counter + 1 and n_phase = max_of phase + 1 in
      let block_of_key = Array.make ((max_of lead + 1) * n_counter * n_phase) (-1) in
      let map = Array.make n 0 in
      let first = Array.make n 0 in
      let blocks = ref 0 in
      for i = 0 to n - 1 do
        let key = (((lead.(i) * n_counter) + counter.(i)) * n_phase) + phase.(i) in
        if block_of_key.(key) < 0 then begin
          block_of_key.(key) <- !blocks;
          first.(!blocks) <- i;
          incr blocks
        end;
        map.(i) <- block_of_key.(key)
      done;
      let coarse a = Array.init !blocks (fun b -> a.(first.(b))) in
      go !blocks (coarse lead) (coarse counter) (coarse phase)
        (Markov.Partition.create map :: acc)
    end
  in
  go n (Array.init n t.lead) (Array.init n t.counter) (Array.init n t.phase) []

let solve ~scope ~labels ?(solver = `Multigrid) ?(ctx = Context.default) t =
  let { Context.tol; cache; trace; pool; smoother; cancel; _ } = ctx in
  let n = n_states t in
  (* an init of the wrong length (e.g. threaded across a counter sweep whose
     state count moved) is dropped, not an error: warm-starting is an
     optimization, never a constraint *)
  let init =
    match ctx.Context.init with Some v when Array.length v = n -> Some v | Some _ | None -> None
  in
  let labels = ("solver", solver_name solver) :: labels in
  Cdr_obs.Span.with_ ~name:(scope ^ ".solve") ~attrs:labels @@ fun () ->
  Cdr_obs.Metrics.incr (scope ^ ".solves") ~labels;
  match (solver, t.chain) with
  | `Power, _ -> Markov.Power.solve_op ~tol ?init ?trace ?pool t.op
  | `Jacobi, _ -> Markov.Splitting.solve_op ~tol ?init ?trace ?pool t.op
  | `Multigrid, Some chain ->
      let solution, _stats =
        match cache with
        | Some cache ->
            let s = Solver_cache.setup cache ~smoother ~hierarchy:(fun () -> hierarchy t) chain in
            Markov.Multigrid.solve_with ~tol ?init ?trace ?pool ?cancel s chain
        | None ->
            Markov.Multigrid.solve ~tol ?init ?trace ?pool ?cancel ~smoother
              ~hierarchy:(hierarchy t) chain
      in
      solution
  | `Multigrid, None -> (
      (* the IAD setup (partition arrays, workspaces, aggregated coarse
         pattern) depends only on the model's structure: prepare once, reuse
         for every solve against this model *)
      let setup =
        if n <= Markov.Gth.max_direct_size then None
        else
          match t.iad.get () with
          | Some s when Markov.Op_multigrid.matches s t.op -> Some s
          | _ -> (
              match hierarchy t with
              | [] -> None
              | partition :: coarse_hierarchy ->
                  let s = Markov.Op_multigrid.prepare ~coarse_hierarchy ~partition t.op in
                  t.iad.set s;
                  Some s)
      in
      match setup with
      | None ->
          (* the whole model fits a direct solve; no aggregation level to run
             the IAD cycle through *)
          Markov.Power.solve_op ~tol ?init ?trace ?pool t.op
      | Some s -> fst (Markov.Op_multigrid.solve_with ~tol ?init ?trace ?pool ?cancel s t.op))
  | `Gauss_seidel, Some chain ->
      Markov.Splitting.solve ~method_:Markov.Splitting.Gauss_seidel ~tol ?init ?trace ?pool chain
  | `Sor omega, Some chain ->
      Markov.Splitting.solve ~method_:(Markov.Splitting.Sor omega) ~tol ?init ?trace ?pool chain
  | `Arnoldi, Some chain -> Markov.Arnoldi.solve ~tol ?trace chain
  | `Aggregation, Some chain ->
      let partition =
        match hierarchy t with first :: _ -> first | [] -> Markov.Partition.identity n
      in
      Markov.Aggregation.solve ~tol ~partition chain
  | (`Gauss_seidel | `Sor _ | `Arnoldi | `Aggregation), None ->
      invalid_arg
        (Printf.sprintf "%s.solve: no matrix-free %s solver" scope (solver_name solver))

let phase_marginal t ~pi =
  Markov.Stat.marginal ~pi ~label:t.phase ~n_labels:t.config.Config.grid_points

let crossing t i j = Phase_error.crosses_boundary t.config ~src:(t.phase i) ~dst:(t.phase j)

let slip_rate t ~pi = Markov.Passage.flux t.op ~pi ~crossing:(crossing t)

let mean_time_between_slips t ~pi =
  let r = slip_rate t ~pi in
  if r <= 0.0 then Float.infinity else 1.0 /. r

let transplant_iad ~from into =
  match from.iad.get () with
  | Some s when Markov.Op_multigrid.matches s into.op -> into.iad.set s
  | _ -> ()
