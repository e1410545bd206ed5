/**
 * @file
 * Memory hierarchy implementation.
 */

#include "cache/hierarchy.hh"

namespace pifetch {

namespace {

CacheConfig
l2Config(const MemoryConfig &cfg)
{
    CacheConfig c;
    c.name = "l2";
    c.sizeBytes = cfg.l2SizeBytes;
    c.assoc = cfg.l2Assoc;
    c.blockBytes = 64;
    return c;
}

} // namespace

MemoryHierarchy::MemoryHierarchy(const MemoryConfig &cfg)
    : l2HitLatency_(cfg.l2HitLatency + cfg.interconnectLatency),
      memLatency_(cfg.memLatency + cfg.interconnectLatency),
      l2_(l2Config(cfg))
{
}

Cycle
MemoryHierarchy::request(Addr block)
{
    if (l2_.access(block).hit)
        return l2HitLatency_;
    l2_.fill(block, false);
    return memLatency_;
}

} // namespace pifetch
