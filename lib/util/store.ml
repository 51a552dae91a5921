(* Persistent, content-addressed JSON store shared by the result cache
   (lib/experiments) and the verdict cache (lib/verify). Each cache
   keeps only its key parts and entry layout; directory selection,
   keying, the executable digest, reads and atomic writes live here. *)

let dir_of_env var ~default =
  match Sys.getenv_opt var with
  | None | Some "" | Some "0" -> None
  | Some "1" -> Some default
  | Some d -> Some d

let key parts = Digest.to_hex (Digest.string (String.concat "\x00" parts))

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Sys.mkdir d 0o755 with Sys_error _ -> ()
  end

(* Temp file + rename: a reader sees the old entry or the new one, never
   a torn write. The temp name is unique per process and domain, so
   concurrent writers of one key never share a temp file. *)
let write ~dir name contents =
  try
    mkdir_p dir;
    let path = Filename.concat dir name in
    let tmp = Printf.sprintf "%s.%d.%d.tmp" path (Unix.getpid ()) (Domain.self () :> int) in
    Out_channel.with_open_bin tmp (fun oc -> output_string oc contents);
    Sys.rename tmp path
  with Sys_error _ -> ()

let read path = try In_channel.with_open_bin path In_channel.input_all with Sys_error _ -> ""

(* One lock guards both the in-process digest and the stamp files: pool
   workers that compute keys concurrently hash the executable once and
   never race on a half-initialized value. *)
let lock = Mutex.create ()
let hashed = ref None

let hash_exe () =
  match !hashed with
  | Some d -> d
  | None ->
    let d =
      try Digest.to_hex (Digest.file Sys.executable_name)
      with Sys_error _ -> "unknown-executable"
    in
    hashed := Some d;
    d

let exe_digest ~dir =
  Mutex.protect lock (fun () ->
      match Unix.stat Sys.executable_name with
      | exception Unix.Unix_error _ -> hash_exe ()
      | st -> (
        let stamp = Filename.concat dir "exe.stamp" in
        let want = Printf.sprintf "%d %.6f" st.Unix.st_size st.Unix.st_mtime in
        match String.split_on_char '\n' (read stamp) with
        | s :: d :: _ when s = want && String.length d = 32 -> d
        | _ ->
          let d = hash_exe () in
          write ~dir "exe.stamp" (Printf.sprintf "%s\n%s\n" want d);
          d))

let find ~dir key =
  match Json.parse_file (Filename.concat dir (key ^ ".json")) with
  | Ok j -> Some j
  | Error _ -> None

let store ~dir key json = write ~dir (key ^ ".json") json
