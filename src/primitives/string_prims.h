#ifndef X100_PRIMITIVES_STRING_PRIMS_H_
#define X100_PRIMITIVES_STRING_PRIMS_H_

namespace x100 {

/// SQL LIKE matcher ('%' any run, '_' any single char); exposed for the MIL
/// and tuple engines, which interpret the same predicate per value. The X100
/// LIKE primitives specialize on the pattern's shape and fall back to this
/// matcher for patterns with '_'; it is also their test reference.
bool LikeMatch(const char* s, const char* pat);

}  // namespace x100

#endif  // X100_PRIMITIVES_STRING_PRIMS_H_
