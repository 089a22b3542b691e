let insert_composites db ~rng ~count =
  List.init count (fun i ->
      let id = Database.num_composites db + i in
      let comp = Clusters.build_one db ~rng ~id in
      ignore (Database.append_composite db comp);
      Clusters.index_parts db ~comp;
      comp)

let delete_composite db ~addr =
  let n = Database.num_composites db in
  let rec find i =
    if i >= n then raise (Database.Bad_database "delete_composite: not in directory")
    else if Database.composite db i = addr then i
    else find (i + 1)
  in
  let pos = find 0 in
  Clusters.unindex_parts db ~comp:addr;
  Database.remove_composite db pos
