module Ivec = struct
  type t = { mutable data : int array; mutable sz : int }

  let create () = { data = [||]; sz = 0 }
  let size v = v.sz

  let get v i =
    assert (i >= 0 && i < v.sz);
    Array.unsafe_get v.data i

  let set v i x =
    assert (i >= 0 && i < v.sz);
    Array.unsafe_set v.data i x

  let grow v =
    let cap = Array.length v.data in
    let data = Array.make (max 4 (2 * cap)) 0 in
    Array.blit v.data 0 data 0 v.sz;
    v.data <- data

  let push v x =
    if v.sz = Array.length v.data then grow v;
    v.data.(v.sz) <- x;
    v.sz <- v.sz + 1

  let pop v =
    assert (v.sz > 0);
    v.sz <- v.sz - 1;
    v.data.(v.sz)

  let last v =
    assert (v.sz > 0);
    v.data.(v.sz - 1)

  let clear v = v.sz <- 0

  let shrink v n =
    assert (n >= 0 && n <= v.sz);
    v.sz <- n

  let to_list v =
    let rec go i acc = if i < 0 then acc else go (i - 1) (v.data.(i) :: acc) in
    go (v.sz - 1) []
end
