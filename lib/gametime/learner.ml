type model = {
  basis : Basis.basis_path list;
  means : float array;
  samples : int array;
  factored : Linalg.factored;
}

let learn ?trials ?(seed = 0x5EED) ~platform basis =
  let k = List.length basis in
  (* an empty basis (no feasible path) measures nothing and predicts
     nothing *)
  let trials = if k = 0 then 0 else Option.value trials ~default:(10 * k) in
  let rng = Random.State.make [| seed |] in
  let basis_arr = Array.of_list basis in
  let measure i = platform basis_arr.(i).Basis.test in
  let sums = Array.make k 0.0 in
  let samples = Array.make k 0 in
  for _ = 1 to trials do
    let i = Random.State.int rng k in
    sums.(i) <- sums.(i) +. float_of_int (measure i);
    samples.(i) <- samples.(i) + 1
  done;
  (* uniform random choice can starve a path on small trial counts; take
     one deterministic measurement for any path never sampled *)
  Array.iteri
    (fun i n ->
      if n = 0 then begin
        sums.(i) <- float_of_int (measure i);
        samples.(i) <- 1
      end)
    samples;
  let means = Array.mapi (fun i s -> s /. float_of_int samples.(i)) sums in
  let factored = Linalg.factor (List.map (fun b -> b.Basis.vector) basis) in
  { basis; means; samples; factored }

let predict m vector =
  match Linalg.solve m.factored vector with
  | None -> None
  | Some coeffs -> Some (Linalg.dot_float coeffs m.means)
