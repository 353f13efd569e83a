// Component library curation: pre-implements a small catalog of reusable
// CNN components (the paper's "database of pre-built checkpoints") into a
// persistent checkpoint store — one <hash>.fdcp per component plus an
// index.tsv — then reopens the directory the way a restarted process
// would and prints the catalog with the achieved QoR: the reuse story of
// Sec. IV-A.
#include <atomic>
#include <cstdio>
#include <string>

#include "flow/service.h"
#include "synth/kernels.h"
#include "synth/layers.h"
#include "util/table.h"
#include "util/thread_pool.h"
#include "util/timer.h"

using namespace fpgasim;

int main(int argc, char** argv) {
  const std::string dir = argc > 1 ? argv[1] : "/tmp/fpgasim_component_db";
  const Device device = make_xcku5p_sim();

  struct Entry {
    std::string key;
    Netlist netlist;
  };
  std::vector<Entry> catalog;
  // A spread of convolution engines...
  for (int k : {3, 5}) {
    for (int par : {1, 2, 4}) {
      ConvParams p;
      p.name = "conv" + std::to_string(k) + "x" + std::to_string(k) + "_p" +
               std::to_string(par);
      p.in_c = 4;
      p.out_c = 8;
      p.kernel = k;
      p.in_h = 16;
      p.in_w = 16;
      p.ic_par = par;
      p.oc_par = par;
      p.materialize_roms = false;
      catalog.push_back({p.name, make_conv_component(p, {}, {})});
    }
  }
  // ...pooling engines...
  for (int c : {4, 16}) {
    PoolParams p;
    p.name = "maxpool_c" + std::to_string(c);
    p.channels = c;
    p.kernel = 2;
    p.in_h = 16;
    p.in_w = 16;
    p.fuse_relu = true;
    catalog.push_back({p.name, make_pool_component(p)});
  }
  // ...and the four motivation kernels.
  for (KernelApp app : {KernelApp::kMatrixMult, KernelApp::kOuterProduct,
                        KernelApp::kRobertCross, KernelApp::kSmoothing}) {
    catalog.push_back({std::string("pe3x3_") + to_string(app),
                       make_kernel_component(app, to_string(app))});
  }

  // Function-optimize, in parallel, every component the store does not
  // hold yet. Seeds derive from each entry's content hash (the store's one
  // seed scheme), so a rebuild anywhere reproduces the same checkpoint.
  const std::string fabric = fabric_signature(device);
  const auto fill = [&](CheckpointStore& store) {
    std::atomic<std::size_t> built{0};
    parallel_for(0, catalog.size(), [&](std::size_t i) {
      const std::string& key = catalog[i].key;
      if (store.contains(key, device)) return;
      OocOptions opt;
      opt.seed = CompileService::component_seed(opt, CheckpointStore::content_hash(key, fabric));
      OocResult result = implement_ooc(device, catalog[i].netlist, opt);
      store.put(key, device, std::move(result.checkpoint));
      built.fetch_add(1, std::memory_order_relaxed);
    });
    return built.load();
  };

  StoreOptions opt;
  opt.dir = dir;
  std::size_t built = 0;
  double fill_seconds = 0.0;
  {
    CheckpointStore store(opt);
    Stopwatch watch;
    built = fill(store);
    fill_seconds = watch.seconds();
  }
  // Restart: a fresh store over the same directory replays the index; every
  // entry loads from disk through the DRC gate and nothing is rebuilt.
  CheckpointStore reopened(opt);
  const std::size_t rebuilt = fill(reopened);
  std::printf("built %zu checkpoints into %s; reopened %zu entries, %zu rebuilt\n", built,
              dir.c_str(), reopened.stats().entries, rebuilt);

  Table table("component store catalog");
  table.set_header({"component", "Fmax (MHz)", "pblock", "LUT", "DSP", "BRAM"});
  for (const Entry& entry : catalog) {
    const auto cp = reopened.get(entry.key, device);
    const ResourceVec res = cp->netlist.stats().resources;
    table.add_row({entry.key, Table::fmt(cp->meta.fmax_mhz, 1), cp->pblock.to_string(),
                   std::to_string(res.lut), std::to_string(res.dsp),
                   std::to_string(res.bram)});
  }
  table.print();
  std::printf("offline function-optimization wall time: %.2fs\n", fill_seconds);
  return rebuilt == 0 ? 0 : 1;
}
