# The document of the cli-mix set-up probe: one vertex.
sset ${Dot} {
  dim 0;
  gen 0 ${o};
}
