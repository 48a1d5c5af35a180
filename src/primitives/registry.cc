#include "primitives/primitive.h"

#include "common/status.h"

namespace x100 {

const PrimitiveRegistry& PrimitiveRegistry::Get() {
  static PrimitiveRegistry* const kRegistry = [] {
    auto* r = new PrimitiveRegistry();
    RegisterMapArith(r);
    RegisterMapCast(r);
    RegisterSelectCmp(r);
    RegisterSelectBitmap(r);
    RegisterAggrPrimitives(r);
    RegisterFetchHash(r);
    RegisterDirectGrp(r);
    RegisterStringPrimitives(r);
    RegisterFusedChainPrimitives(r);
    return r;
  }();
  return *kRegistry;
}

const MapPrimitive* PrimitiveRegistry::FindMap(const std::string& name) const {
  auto it = maps_.find(name);
  return it == maps_.end() ? nullptr : &it->second;
}

const SelectPrimitive* PrimitiveRegistry::FindSelect(const std::string& name) const {
  auto it = selects_.find(name);
  return it == selects_.end() ? nullptr : &it->second;
}

const AggrPrimitive* PrimitiveRegistry::FindAggr(const std::string& name) const {
  auto it = aggrs_.find(name);
  return it == aggrs_.end() ? nullptr : &it->second;
}

void PrimitiveRegistry::RegisterMap(const std::string& name, TypeId result,
                                    int num_args, MapFn fn) {
  X100_CHECK(maps_.emplace(name, MapPrimitive{result, num_args, fn}).second);
}

void PrimitiveRegistry::RegisterSelect(const std::string& name, int num_args,
                                       SelectFn fn) {
  X100_CHECK(selects_.emplace(name, SelectPrimitive{num_args, fn}).second);
}

void PrimitiveRegistry::RegisterAggr(const std::string& name, TypeId state,
                                     AggrFn fn) {
  X100_CHECK(aggrs_.emplace(name, AggrPrimitive{state, fn}).second);
}

std::vector<std::string> PrimitiveRegistry::MapNames() const {
  std::vector<std::string> names;
  names.reserve(maps_.size());
  for (const auto& [name, prim] : maps_) names.push_back(name);
  return names;
}

}  // namespace x100
