// Compile-time contract of the checkpoint layout (snapshot/sections.hpp).
//
// This TU only includes the layout, which instantiates every section's
// persist function for both archives. CMake compiles it twice as a ctest
// pair: as is (ckpt_persist_probe_control, must compile), and against a
// copy of net/shuffle_channel.hpp whose ShuffleChannel::SavedState has one
// more member (ckpt_persist_probe_extra_field, must fail in the layout's
// structured binding). A field added to a SavedState cannot go
// unpersisted.
#include "snapshot/sections.hpp"
