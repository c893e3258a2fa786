module Paths = Prog.Paths
module Cfg = Prog.Cfg

let factor basis = Linalg.factor (List.map (fun b -> b.Basis.vector) basis)

let coordinates_in f vector =
  Option.map (Array.map Rational.to_float) (Linalg.solve f vector)

let coordinates basis vector = coordinates_in (factor basis) vector

(* determinant by LU with partial pivoting *)
let det m =
  let n = Array.length m in
  let a = Array.map Array.copy m in
  let sign = ref 1.0 in
  let result = ref 1.0 in
  (try
     for col = 0 to n - 1 do
       (* pivot *)
       let piv = ref col in
       for r = col + 1 to n - 1 do
         if abs_float a.(r).(col) > abs_float a.(!piv).(col) then piv := r
       done;
       if abs_float a.(!piv).(col) < 1e-12 then begin
         result := 0.0;
         raise Exit
       end;
       if !piv <> col then begin
         let tmp = a.(col) in
         a.(col) <- a.(!piv);
         a.(!piv) <- tmp;
         sign := -. !sign
       end;
       result := !result *. a.(col).(col);
       for r = col + 1 to n - 1 do
         let f = a.(r).(col) /. a.(col).(col) in
         for cc = col to n - 1 do
           a.(r).(cc) <- a.(r).(cc) -. (f *. a.(col).(cc))
         done
       done
     done
   with Exit -> ());
  !sign *. !result

let barycentric ?(c = 2.0) basis ~candidates (g : Cfg.t) =
  let k = List.length basis in
  if k = 0 then []
  else begin
    (* express everything in the coordinates of the ORIGINAL basis, which
       stay fixed while rows are exchanged *)
    let f = factor basis in
    let cand_coords =
      List.filter_map
        (fun (path, test) ->
          Option.map
            (fun co ->
              ( {
                  Basis.path;
                  vector = Paths.vector g path;
                  test;
                },
                co ))
            (coordinates_in f (Paths.vector g path)))
        candidates
    in
    let chosen = Array.of_list basis in
    let rows =
      Array.init k (fun i -> Array.init k (fun j -> if i = j then 1.0 else 0.0))
    in
    (* Awerbuch–Kleinberg exchange: swap a candidate into row i whenever it
       multiplies |det| by more than c; terminates because |det| grows
       geometrically and is bounded on the finite candidate set *)
    let rec loop fuel =
      if fuel > 0 then begin
        let changed = ref false in
        for i = 0 to k - 1 do
          List.iter
            (fun (bp, co) ->
              let base = abs_float (det rows) in
              let saved_row = rows.(i) and saved_bp = chosen.(i) in
              rows.(i) <- co;
              chosen.(i) <- bp;
              if abs_float (det rows) > c *. base then changed := true
              else begin
                rows.(i) <- saved_row;
                chosen.(i) <- saved_bp
              end)
            cand_coords
        done;
        if !changed then loop (fuel - 1)
      end
    in
    loop 64;
    Array.to_list chosen
  end

let max_coordinate basis ~candidates (g : Cfg.t) =
  let f = factor basis in
  List.fold_left
    (fun acc (path, _) ->
      match coordinates_in f (Paths.vector g path) with
      | None -> acc
      | Some co -> Array.fold_left (fun a x -> max a (abs_float x)) acc co)
    0.0 candidates
