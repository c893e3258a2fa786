(* Seeded job streams. Each workload repeats blocks of fixed strata; the
   seed orders a block and draws the parameters inside each stratum from
   ranges measured to stay small (every job well under a second). *)

module J = Server.Jobs

type job =
  | Hd of { name : string; width : int }
  | Deob of { program : [ `P1 | `P2 ]; width : int }
  | Spec of J.spec

let kind = function
  | Hd _ -> "ogis.hd"
  | Deob _ -> "ogis.deobfuscate"
  | Spec s -> (
    match J.kind s with
    | "bmc" -> "mc.bmc"
    | "cegar" -> "mc.cegar"
    | "invgen" -> "invgen.job"
    | "lstar" -> "lstar.job"
    | "timing" -> "gametime.job"
    | "deobfuscate" -> "ogis.deobfuscate"
    | k -> k)

let describe = function
  | Hd { name; width } -> Printf.sprintf "%s width %d" name width
  | Deob { program; width } ->
    Printf.sprintf "deobfuscate %s width %d"
      (match program with `P1 -> "p1" | `P2 -> "p2")
      width
  | Spec s -> Obs.Json.to_string (J.to_json s)

let rng ~seed workload = Random.State.make [| seed; Hashtbl.hash workload |]
let range r lo hi = lo + Random.State.int r (hi - lo + 1)

let shuffle r a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int r (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* ----- synth ----- *)

let synth_block r =
  let hd =
    List.concat_map
      (fun b ->
        List.map
          (fun width -> Hd { name = b.Ogis.Hd_suite.name; width })
          [ 4; 5; 6 ])
      Ogis.Hd_suite.all
  in
  let deob =
    List.concat_map
      (fun program -> List.map (fun width -> Deob { program; width }) [ 4; 5 ])
      [ `P1; `P2 ]
  in
  shuffle r (Array.of_list (hd @ deob))

(* ----- small specs, shared by verify and serve ----- *)

(* a shift register ignores the counter fields; they keep the CLI defaults *)
let bmc_shift r ~len:(lo, hi) ~extra:(elo, ehi) =
  let len = range r lo hi in
  J.Bmc
    {
      system = { shift = Some len; junk = 8; bits = 3; modulus = 6; bad_value = 7 };
      max_depth = len + range r elo ehi;
    }

(* a mod counter whose bad value is reachable iff [not safe]; the depth
   always covers the whole counting range *)
let bmc_counter r ~bits:(blo, bhi) ~junk:(jlo, jhi) ~safe =
  let bits = range r blo bhi in
  let top = (1 lsl bits) - 1 in
  let modulus = range r 3 (top - 1) in
  let bad_value = if safe then range r modulus top else range r 1 (modulus - 1) in
  J.Bmc
    {
      system = { shift = None; junk = range r jlo jhi; bits; modulus; bad_value };
      max_depth = top + range r 1 24;
    }

let cegar r ~bits:(blo, bhi) ~junk:(jlo, jhi) ~safe =
  let bits = range r blo bhi in
  let top = (1 lsl bits) - 1 in
  let modulus = range r 3 (top - 1) in
  let bad_value = if safe then range r modulus top else range r 1 (modulus - 1) in
  J.Cegar { junk = range r jlo jhi; bits; modulus; bad_value }

let invgen r =
  let circuit = [| `Ring; `Mod5; `Twin; `Stuck |].(Random.State.int r 4) in
  J.Invgen { circuit; n = range r 8 16 }

let timing r ~bits:(lo, hi) ~tau =
  J.Timing
    {
      source = None;
      bits = range r lo hi;
      tau = (if tau then Some (range r 300 2000) else None);
    }

let verify_block r =
  let shift () = bmc_shift r ~len:(12, 40) ~extra:(8, 40) in
  let counter safe = bmc_counter r ~bits:(4, 4) ~junk:(2, 8) ~safe in
  let cegar safe = cegar r ~bits:(3, 3) ~junk:(6, 11) ~safe in
  shuffle r
    (Array.map
       (fun s -> Spec s)
       [|
         shift (); shift (); counter true; counter false; cegar true; cegar false;
         invgen r; timing r ~bits:(5, 7) ~tau:false; J.Lstar { states = range r 10 14 };
       |])

(* ----- warm-up ----- *)

let shift len max_depth =
  J.Bmc
    { system = { shift = Some len; junk = 8; bits = 3; modulus = 6; bad_value = 7 }; max_depth }

let counter ~junk max_depth =
  J.Bmc
    { system = { shift = None; junk; bits = 4; modulus = 14; bad_value = 15 }; max_depth }

let warmup = function
  | "synth" ->
    [ Hd { name = "hd08-average-no-overflow"; width = 6 }; Deob { program = `P1; width = 5 } ]
  | "verify" ->
    List.map
      (fun s -> Spec s)
      [ shift 40 80; counter ~junk:8 39;
        J.Cegar { junk = 11; bits = 3; modulus = 6; bad_value = 7 };
        J.Invgen { circuit = `Ring; n = 16 };
        J.Timing { source = None; bits = 7; tau = None };
        J.Lstar { states = 14 } ]
  | _ ->
    List.map
      (fun s -> Spec s)
      [ shift 30 90; counter ~junk:6 39;
        J.Cegar { junk = 8; bits = 4; modulus = 14; bad_value = 15 };
        J.Timing { source = None; bits = 6; tau = Some 2000 };
        counter ~junk:6 39; counter ~junk:6 55 ]

(* ----- serve ----- *)

type role = Cold | Repeat | Warm

type item = {
  index : int;
  spec : J.spec;
  role : role;
  after : int option;
}

let role_name = function Cold -> "cold" | Repeat -> "repeat" | Warm -> "warm"

(* Specs are told apart by their JSON rendering: the generator builds
   each one canonically, so distinct renderings are distinct cache keys,
   and rendering is far cheaper than [Server.Jobs.key]. *)
let id s = Obs.Json.to_string (J.to_json s)

type serve_gen = {
  r : Random.State.t;
  clients : int;
  used : (string, unit) Hashtbl.t;  (* every spec submitted so far *)
  mutable items : item list;  (* newest first, trimmed to [window] *)
  mutable pending : (role * J.spec option) list;  (* rest of the block *)
  mutable count : int;
}

(* how far back a repeat or warm revisit may reach: well inside the
   daemon's 256-entry result cache and its 8-family warm store *)
let window = 40
let serve_block = 20

let serve_gen ?(exclude = []) ~seed ~clients () =
  let used = Hashtbl.create 4096 in
  List.iter (fun s -> Hashtbl.replace used (id s) ()) exclude;
  { r = rng ~seed "serve"; clients; used; items = []; pending = []; count = 0 }

(* A spec no earlier item used. A stratum whose space is nearly spent
   gives way to a timing job: [tau] leaves the cost unchanged and takes
   unboundedly many values, so a cold job is never a cache hit. *)
let fresh g draw =
  let unused s = not (Hashtbl.mem g.used (id s)) in
  let rec go tries =
    let s = draw g.r in
    if unused s then s
    else if tries < 50 then go (tries + 1)
    else
      match timing g.r ~bits:(4, 6) ~tau:true with
      | J.Timing t ->
        let rec bump tau =
          let s = J.Timing { t with tau = Some tau } in
          if unused s then s else bump (tau + 1)
        in
        bump (Option.get t.tau)
      | s -> s
  in
  let s = go 0 in
  Hashtbl.replace g.used (id s) ();
  s

(* the cold strata of the served stream: small jobs over parameter spaces
   large enough (over a thousand specs each) that a run never exhausts
   them *)
let counter r = bmc_counter r ~bits:(4, 4) ~junk:(2, 6) ~safe:(Random.State.bool r)

let new_block g =
  let r = g.r in
  let colds =
    [
      (fun r -> bmc_shift r ~len:(6, 40) ~extra:(0, 80));
      counter;
      (fun r -> cegar r ~bits:(3, 4) ~junk:(0, 8) ~safe:(Random.State.bool r));
      (fun r -> timing r ~bits:(4, 6) ~tau:true);
    ]
  in
  let roles =
    List.map (fun d -> (Cold, Some (fresh g d))) colds
    @ List.init 2 (fun _ -> (Warm, None))
    @ List.init (serve_block - 6) (fun _ -> (Repeat, None))
  in
  g.pending <- Array.to_list (shuffle r (Array.of_list roles))

(* earlier items a new one may build on: at least [clients] positions
   back, at most [window] *)
let eligible g =
  List.filter (fun it -> g.count - it.index >= g.clients) g.items

let pick r = function
  | [] -> None
  | l -> Some (List.nth l (Random.State.int r (List.length l)))

let deepen g (it : item) =
  match it.spec with
  | J.Bmc b ->
    let rec go d =
      let s = J.Bmc { b with max_depth = d } in
      if Hashtbl.mem g.used (id s) then go (d + 1) else s
    in
    go (b.max_depth + range g.r 4 16)
  | s -> s

let next g =
  if g.pending = [] then new_block g;
  let role, spec = List.hd g.pending in
  g.pending <- List.tl g.pending;
  let cold () = fresh g counter in
  let role, spec, after =
    match role, spec with
    | Cold, Some s -> (Cold, s, None)
    | Repeat, _ -> (
      match pick g.r (eligible g) with
      | Some it -> (Repeat, it.spec, Some it.index)
      | None -> (Cold, cold (), None))
    | Warm, _ -> (
      let bmc =
        List.filter
          (fun it ->
            match it.spec with J.Bmc _ -> it.role = Cold | _ -> false)
          (eligible g)
      in
      match pick g.r bmc with
      | Some it -> (Warm, deepen g it, Some it.index)
      | None -> (Cold, cold (), None))
    | Cold, None -> (Cold, cold (), None)
  in
  let it = { index = g.count; spec; role; after } in
  Hashtbl.replace g.used (id spec) ();
  g.items <- List.filteri (fun i _ -> i < window) (it :: g.items);
  g.count <- g.count + 1;
  it
