(* Self time from completion-ordered span records: children finish
   before their parent, so the duration accumulated one level down since
   the parent's level last closed belongs to the parent's children. *)

type t = { name : string; dur : float; self : float }

let of_records records =
  let below = Hashtbl.create 16 in
  let covered dom depth = Option.value ~default:0.0 (Hashtbl.find_opt below (dom, depth)) in
  List.filter_map
    (fun r ->
      let field f name = Option.bind (Obs.Json.member name r) f in
      match
        ( field Obs.Json.to_str "kind",
          field Obs.Json.to_str "name",
          field Obs.Json.to_float "dur",
          field Obs.Json.to_int "depth" )
      with
      | Some "span", Some name, Some dur, Some depth ->
        let dom = Option.value ~default:0 (field Obs.Json.to_int "dom") in
        let children = covered dom (depth + 1) in
        Hashtbl.replace below (dom, depth + 1) 0.0;
        Hashtbl.replace below (dom, depth) (covered dom depth +. dur);
        Some { name; dur; self = dur -. children }
      | _ -> None)
    records
