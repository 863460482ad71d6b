let read filename =
  match In_channel.with_open_bin filename In_channel.input_all with
  | s -> Ok s
  | exception Sys_error msg -> Error msg
