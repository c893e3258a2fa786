type counter = int Atomic.t
type gauge = float Atomic.t

(* 1 + bits(v) buckets: observation v lands in bucket [bits v], whose
   inclusive upper bound is 2^bits - 1; bucket 0 holds v <= 0 *)
let nbuckets = 63

(* Counters and gauges are single atomics; histograms update four
   fields plus a bucket per observation, so they carry a private mutex
   (uncontended in sequential runs, and observations are far rarer than
   counter bumps). *)
type histogram = {
  h_lock : Mutex.t;
  mutable h_count : int;
  mutable h_sum : int;
  mutable h_min : int; (* max_int when empty *)
  mutable h_max : int;
  h_buckets : int array;
}

type entry =
  | C of counter
  | G of gauge
  | H of histogram

let registry : (string, entry) Hashtbl.t = Hashtbl.create 64

(* Guards the registry table itself (registration, snapshot, reset) —
   never the per-instrument updates. *)
let registry_lock = Mutex.create ()

let register name make describe =
  Mutex.lock registry_lock;
  let e =
    match Hashtbl.find_opt registry name with
    | Some e -> e
    | None ->
      let e = make () in
      Hashtbl.add registry name e;
      e
  in
  Mutex.unlock registry_lock;
  describe e

let kind_error name =
  invalid_arg
    (Printf.sprintf "Obs.Metrics: %s already registered as another kind" name)

let counter name =
  register name
    (fun () -> C (Atomic.make 0))
    (function C c -> c | _ -> kind_error name)

let incr (c : counter) = ignore (Atomic.fetch_and_add c 1 : int)
let add (c : counter) n = ignore (Atomic.fetch_and_add c n : int)
let counter_value (c : counter) = Atomic.get c
let set_counter (c : counter) n = Atomic.set c n

let gauge name =
  register name
    (fun () -> G (Atomic.make 0.0))
    (function G g -> g | _ -> kind_error name)

let set_gauge (g : gauge) v = Atomic.set g v
let gauge_value (g : gauge) = Atomic.get g

let histogram name =
  register name
    (fun () ->
      H
        {
          h_lock = Mutex.create ();
          h_count = 0;
          h_sum = 0;
          h_min = max_int;
          h_max = 0;
          h_buckets = Array.make nbuckets 0;
        })
    (function H h -> h | _ -> kind_error name)

let bucket_of v =
  if v <= 0 then 0
  else begin
    let b = ref 0 and v = ref v in
    while !v > 0 do
      Stdlib.incr b;
      v := !v lsr 1
    done;
    min !b (nbuckets - 1)
  end

let observe h v =
  Mutex.lock h.h_lock;
  h.h_count <- h.h_count + 1;
  h.h_sum <- h.h_sum + v;
  if v < h.h_min then h.h_min <- v;
  if v > h.h_max then h.h_max <- v;
  let b = bucket_of v in
  h.h_buckets.(b) <- h.h_buckets.(b) + 1;
  Mutex.unlock h.h_lock

let hist_count h = h.h_count
let hist_sum h = h.h_sum
let hist_max h = h.h_max

let buckets_of_locked h =
  let buckets = ref [] in
  for b = nbuckets - 1 downto 0 do
    if h.h_buckets.(b) > 0 then
      buckets := ((1 lsl b) - 1, h.h_buckets.(b)) :: !buckets
  done;
  !buckets

let buckets_of h =
  Mutex.lock h.h_lock;
  let b = buckets_of_locked h in
  Mutex.unlock h.h_lock;
  b

let percentile_of_buckets ~buckets ~count ~max:hmax p =
  if not (p > 0.0 && p <= 100.0) then
    invalid_arg
      (Printf.sprintf "Obs.Metrics.percentile: p must be in (0, 100], got %g" p);
  if count <= 0 then 0
  else begin
    let rank =
      let r = int_of_float (Float.ceil (p /. 100.0 *. float_of_int count)) in
      if r < 1 then 1 else if r > count then count else r
    in
    let rec go cum = function
      | [] -> hmax
      | (le, n) :: rest ->
        let cum = cum + n in
        if cum >= rank then Stdlib.min le hmax else go cum rest
    in
    go 0 buckets
  end

let hist_percentile h p =
  percentile_of_buckets ~buckets:(buckets_of h) ~count:h.h_count ~max:h.h_max p

type snapshot_value =
  | Counter of int
  | Gauge of float
  | Histogram of {
      count : int;
      sum : int;
      min : int;
      max : int;
      buckets : (int * int) list;
    }

let snapshot () =
  Mutex.lock registry_lock;
  let entries = Hashtbl.fold (fun name e acc -> (name, e) :: acc) registry [] in
  Mutex.unlock registry_lock;
  List.map
    (fun (name, entry) ->
      let v =
        match entry with
        | C c -> Counter (Atomic.get c)
        | G g -> Gauge (Atomic.get g)
        | H h ->
          Mutex.lock h.h_lock;
          let v =
            Histogram
              {
                count = h.h_count;
                sum = h.h_sum;
                min = (if h.h_count = 0 then 0 else h.h_min);
                max = h.h_max;
                buckets = buckets_of_locked h;
              }
          in
          Mutex.unlock h.h_lock;
          v
      in
      (name, v))
    entries
  |> List.sort compare

let to_json = function
  | Counter c -> Json.Int c
  | Gauge g -> Json.Float g
  | Histogram { count; sum; min; max; buckets } ->
    Json.Obj
      [
        ("count", Json.Int count);
        ("sum", Json.Int sum);
        ("min", Json.Int min);
        ("max", Json.Int max);
        ( "buckets",
          Json.List
            (List.map
               (fun (le, n) -> Json.List [ Json.Int le; Json.Int n ])
               buckets) );
      ]

let of_json j =
  let int k = Option.bind (Json.member k j) Json.to_int in
  match j with
  | Json.Int c -> Some (Counter c)
  | Json.Float g -> Some (Gauge g)
  | Json.Obj _ -> (
    match (int "count", int "sum", int "max") with
    | Some count, Some sum, Some max ->
      let buckets =
        match Json.member "buckets" j with
        | Some (Json.List items) ->
          List.filter_map
            (function
              | Json.List [ le; n ] -> (
                match (Json.to_int le, Json.to_int n) with
                | Some le, Some n -> Some (le, n)
                | _ -> None)
              | _ -> None)
            items
        | _ -> []
      in
      let min = Option.value (int "min") ~default:0 in
      Some (Histogram { count; sum; min; max; buckets })
    | _ -> None)
  | _ -> None

let moved = function
  | Counter c -> c <> 0
  | Gauge g -> g <> 0.0
  | Histogram { count; _ } -> count > 0

let pp_snapshot ppf metrics =
  let line fmt = Format.fprintf ppf fmt in
  List.iter
    (fun (name, v) ->
      if moved v then
        match v with
        | Counter c -> line "  %-28s %d@." name c
        | Gauge g -> line "  %-28s %g@." name g
        | Histogram { count; sum; min = _; max; buckets } ->
          let pct p = percentile_of_buckets ~buckets ~count ~max p in
          line "  %-28s count=%d mean=%.1f p50=%d p90=%d p99=%d max=%d@."
            name count
            (float_of_int sum /. float_of_int count)
            (pct 50.0) (pct 90.0) (pct 99.0) max)
    metrics;
  let cval name =
    match List.assoc_opt name metrics with Some (Counter c) -> c | _ -> 0
  in
  let rate label hits total =
    if total > 0 then
      line "  %-28s %.1f%% (%d/%d)@." label
        (100.0 *. float_of_int hits /. float_of_int total)
        hits total
  in
  (* derived: bit-blast cache and cross-context recipe-cache hit rates *)
  let hits =
    cval "bitblast.term_cache_hits" + cval "bitblast.formula_cache_hits"
  in
  let misses =
    cval "bitblast.term_cache_misses" + cval "bitblast.formula_cache_misses"
  in
  if hits + misses > 0 then line "@.";
  rate "bitblast cache hit rate" hits (hits + misses);
  let shared_hits = cval "bitblast.shared_hits" in
  rate "shared recipe hit rate" shared_hits
    (shared_hits + cval "bitblast.shared_misses");
  (* derived: proof & certificate plane *)
  let proof_bytes = cval "proof.bytes" in
  let certs = cval "proof.certificates" in
  if proof_bytes > 0 || certs > 0 then
    line "  proof plane                  %d bytes logged, %d certificate%s@."
      proof_bytes certs
      (if certs = 1 then "" else "s");
  let checked = cval "cert.clauses_checked" in
  if checked > 0 then
    line "  certificates audited         %d clauses RUP-checked@." checked

let reset () =
  Mutex.lock registry_lock;
  let entries = Hashtbl.fold (fun _ e acc -> e :: acc) registry [] in
  Mutex.unlock registry_lock;
  List.iter
    (function
      | C c -> Atomic.set c 0
      | G g -> Atomic.set g 0.0
      | H h ->
        Mutex.lock h.h_lock;
        h.h_count <- 0;
        h.h_sum <- 0;
        h.h_min <- max_int;
        h.h_max <- 0;
        Array.fill h.h_buckets 0 nbuckets 0;
        Mutex.unlock h.h_lock)
    entries
