#include "runtime/collectives.hpp"

#include <algorithm>
#include <cstdint>
#include <utility>

#include "net/buffer_pool.hpp"
#include "support/contracts.hpp"

namespace specomp::runtime {

namespace {

// ---------------------------------------------------------------------------
// Rank-labelled block sets: the unit the binomial gather forwards upward.
// Wire image: u64 count, then per block u64 rank + (u64 len + doubles).
// ---------------------------------------------------------------------------

struct RankBlock {
  std::uint64_t rank = 0;
  std::vector<double> values;
};

std::vector<std::byte> encode_blocks(const std::vector<RankBlock>& blocks) {
  net::ByteWriter writer(net::BufferPool::local().acquire());
  writer.write<std::uint64_t>(blocks.size());
  for (const RankBlock& b : blocks) {
    writer.write<std::uint64_t>(b.rank);
    writer.write_span(std::span<const double>(b.values));
  }
  return std::move(writer).take();
}

void decode_blocks_into(std::span<const std::byte> payload,
                        std::vector<RankBlock>& out) {
  net::ByteReader reader(payload);
  const auto count = reader.read<std::uint64_t>();
  for (std::uint64_t i = 0; i < count; ++i) {
    RankBlock b;
    b.rank = reader.read<std::uint64_t>();
    const std::span<const double> values = reader.read_span<double>();
    b.values.assign(values.begin(), values.end());
    out.push_back(std::move(b));
  }
}

/// Binomial-tree gather of rank-labelled blocks at `root`: each rank folds
/// its children's subtree sets into its own, then forwards the union to its
/// parent — p-1 messages over ceil(log2 p) rounds.  Returns the full set at
/// the root (unspecified order), an empty vector elsewhere.
std::vector<RankBlock> gather_tree_blocks(Communicator& comm,
                                          net::Rank root,
                                          std::span<const double> local,
                                          int tag) {
  const int p = comm.size();
  const int vrank = (comm.rank() - root + p) % p;
  std::vector<RankBlock> collected;
  collected.push_back(RankBlock{static_cast<std::uint64_t>(comm.rank()),
                                {local.begin(), local.end()}});
  for (int mask = 1; mask < p; mask <<= 1) {
    if ((vrank & mask) == 0) {
      const int src_vrank = vrank + mask;
      if (src_vrank < p) {
        const net::Rank src = (src_vrank + root) % p;
        net::Message msg = comm.recv(src, tag);
        decode_blocks_into(msg.payload, collected);
        net::BufferPool::local().release(std::move(msg.payload));
      }
    } else {
      const net::Rank parent = ((vrank - mask) + root) % p;
      comm.send(parent, tag, encode_blocks(collected));
      return {};
    }
  }
  return collected;  // only the root reaches here with the full set
}

/// Binomial-tree broadcast of an opaque payload from `root` (p-1 messages,
/// ceil(log2 p) rounds; children are served highest-distance first, the
/// classic binomial schedule).  On non-roots `payload` is replaced by the
/// received image.
void broadcast_tree_bytes(Communicator& comm, net::Rank root,
                          std::vector<std::byte>& payload, int tag) {
  const int p = comm.size();
  const int vrank = (comm.rank() - root + p) % p;
  int mask = 1;
  while (mask < p) {
    if ((vrank & mask) != 0) {
      const net::Rank parent = ((vrank - mask) + root) % p;
      net::Message msg = comm.recv(parent, tag);
      payload = std::move(msg.payload);
      break;
    }
    mask <<= 1;
  }
  mask >>= 1;
  while (mask > 0) {
    if (vrank + mask < p) {
      const net::Rank child = ((vrank + mask) + root) % p;
      comm.send(child, tag, std::vector<std::byte>(payload));
    }
    mask >>= 1;
  }
}

CollectiveAlgo resolve(const Communicator& comm, CollectiveAlgo algo) {
  if (algo == CollectiveAlgo::Auto) algo = comm.collective_algo();
  return resolve_collective_algo(algo, comm.size());
}

// ---------------------------------------------------------------------------
// Flat (paper-era linear) implementations — unchanged message patterns.
// ---------------------------------------------------------------------------

std::vector<std::vector<double>> gather_flat(Communicator& comm,
                                             net::Rank root,
                                             std::span<const double> local,
                                             int tag) {
  std::vector<std::vector<double>> blocks;
  if (comm.rank() == root) {
    blocks.resize(static_cast<std::size_t>(comm.size()));
    blocks[static_cast<std::size_t>(root)].assign(local.begin(), local.end());
    for (int r = 0; r < comm.size(); ++r) {
      if (r == root) continue;
      blocks[static_cast<std::size_t>(r)] = comm.recv_doubles(r, tag);
    }
  } else {
    comm.send_doubles(root, tag, local);
  }
  return blocks;
}

void broadcast_flat(Communicator& comm, net::Rank root,
                    std::vector<double>& data, int tag) {
  if (comm.rank() == root) {
    for (int r = 0; r < comm.size(); ++r)
      if (r != root)
        comm.send_doubles(r, tag, std::span<const double>(data));
  } else {
    data = comm.recv_doubles(root, tag);
  }
}

// ---------------------------------------------------------------------------
// Tree reductions: recursive doubling over (rank, value) pairs.
//
// The exchange moves values, not partial sums, and every rank folds the
// complete set in ascending rank order — the same order the flat scheme's
// root uses — so Flat and Tree reductions are bit-identical even for
// non-associative folds (floating-point sum).  Non-powers of two use the
// standard pre/post phase: ranks >= p2 (largest power of two <= p) park
// their value at rank - p2 and receive the result back at the end.
// Messages: (p - p2) + p2 * log2(p2) + (p - p2)  =  O(p log p).
// ---------------------------------------------------------------------------

using RankValue = std::pair<std::uint64_t, double>;

void send_pairs(Communicator& comm, net::Rank dst, int tag,
                const std::vector<RankValue>& pairs) {
  net::ByteWriter writer(net::BufferPool::local().acquire());
  writer.write<std::uint64_t>(pairs.size());
  for (const RankValue& rv : pairs) {
    writer.write<std::uint64_t>(rv.first);
    writer.write<double>(rv.second);
  }
  comm.send(dst, tag, std::move(writer).take());
}

std::vector<RankValue> recv_pairs(Communicator& comm, net::Rank src, int tag) {
  net::Message msg = comm.recv(src, tag);
  net::ByteReader reader(msg.payload);
  const auto count = reader.read<std::uint64_t>();
  std::vector<RankValue> pairs;
  pairs.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    const auto rank = reader.read<std::uint64_t>();
    const auto value = reader.read<double>();
    pairs.emplace_back(rank, value);
  }
  net::BufferPool::local().release(std::move(msg.payload));
  return pairs;
}

template <typename Fold>
double allreduce_tree(Communicator& comm, double value, int tag, Fold&& fold) {
  const int p = comm.size();
  const int rank = comm.rank();
  int p2 = 1;
  while (p2 * 2 <= p) p2 *= 2;
  const int rem = p - p2;

  if (rank >= p2) {
    // Park the value at the power-of-two partner, await the folded result.
    send_pairs(comm, rank - p2, tag,
               {{static_cast<std::uint64_t>(rank), value}});
    return comm.recv_doubles(rank - p2, tag)[0];
  }

  std::vector<RankValue> known{{static_cast<std::uint64_t>(rank), value}};
  if (rank < rem) {
    std::vector<RankValue> parked = recv_pairs(comm, rank + p2, tag);
    known.insert(known.end(), parked.begin(), parked.end());
    std::sort(known.begin(), known.end());
  }
  for (int mask = 1; mask < p2; mask <<= 1) {
    const net::Rank partner = rank ^ mask;
    send_pairs(comm, partner, tag, known);
    std::vector<RankValue> theirs = recv_pairs(comm, partner, tag);
    std::vector<RankValue> merged;
    merged.reserve(known.size() + theirs.size());
    std::merge(known.begin(), known.end(), theirs.begin(), theirs.end(),
               std::back_inserter(merged));
    known = std::move(merged);
  }
  SPEC_ASSERT(known.size() == static_cast<std::size_t>(p));
  double acc = known[0].second;
  for (int r = 1; r < p; ++r)
    acc = fold(acc, known[static_cast<std::size_t>(r)].second);
  if (rank < rem) {
    const double result[] = {acc};
    comm.send_doubles(rank + p2, tag, result);
  }
  return acc;
}

template <typename Fold>
double allreduce_flat(Communicator& comm, double value, int tag, Fold&& fold) {
  // Fan-in to rank 0, fold, fan-out — the simple linear scheme the paper's
  // PVM codes used.  Two tags keep the phases apart.
  constexpr net::Rank kRoot = 0;
  const std::vector<double> mine{value};
  const auto blocks = gather_flat(comm, kRoot, mine, tag);
  std::vector<double> result{value};
  if (comm.rank() == kRoot) {
    double acc = blocks[0][0];
    for (int r = 1; r < comm.size(); ++r)
      acc = fold(acc, blocks[static_cast<std::size_t>(r)][0]);
    result[0] = acc;
  }
  broadcast_flat(comm, kRoot, result, tag + 1);
  return result[0];
}

template <typename Fold>
double allreduce(Communicator& comm, double value, int tag, CollectiveAlgo algo,
                 Fold&& fold) {
  if (comm.size() <= 1) return value;
  if (resolve(comm, algo) == CollectiveAlgo::Tree)
    return allreduce_tree(comm, value, tag, fold);
  return allreduce_flat(comm, value, tag, fold);
}

}  // namespace

std::vector<std::vector<double>> gather(Communicator& comm, net::Rank root,
                                        std::span<const double> local, int tag,
                                        CollectiveAlgo algo) {
  SPEC_EXPECTS(root >= 0 && root < comm.size());
  if (resolve(comm, algo) != CollectiveAlgo::Tree)
    return gather_flat(comm, root, local, tag);

  std::vector<RankBlock> collected = gather_tree_blocks(comm, root, local, tag);
  std::vector<std::vector<double>> blocks;
  if (comm.rank() == root) {
    blocks.resize(static_cast<std::size_t>(comm.size()));
    for (RankBlock& b : collected)
      blocks[static_cast<std::size_t>(b.rank)] = std::move(b.values);
  }
  return blocks;
}

void broadcast(Communicator& comm, net::Rank root, std::vector<double>& data,
               int tag, CollectiveAlgo algo) {
  SPEC_EXPECTS(root >= 0 && root < comm.size());
  if (resolve(comm, algo) != CollectiveAlgo::Tree) {
    broadcast_flat(comm, root, data, tag);
    return;
  }
  net::ByteWriter writer(net::BufferPool::local().acquire());
  writer.write_span(std::span<const double>(data));
  std::vector<std::byte> payload = std::move(writer).take();
  broadcast_tree_bytes(comm, root, payload, tag);
  if (comm.rank() != root) {
    net::ByteReader reader(payload);
    const std::span<const double> values = reader.read_span<double>();
    data.assign(values.begin(), values.end());
  }
  net::BufferPool::local().release(std::move(payload));
}

std::vector<std::vector<double>> allgather(Communicator& comm,
                                           std::span<const double> local,
                                           int tag, CollectiveAlgo algo) {
  const int p = comm.size();
  const int rank = comm.rank();
  std::vector<std::vector<double>> blocks(static_cast<std::size_t>(p));
  if (p == 1) {
    blocks[0].assign(local.begin(), local.end());
    return blocks;
  }

  if (resolve(comm, algo) != CollectiveAlgo::Tree) {
    // The paper's all-to-all: every rank posts its block to every peer —
    // p(p-1) messages in one round (what the Fig. 1/7 exchange does each
    // iteration).
    for (int i = 1; i < p; ++i)
      comm.send_doubles((rank + i) % p, tag, local);
    blocks[static_cast<std::size_t>(rank)].assign(local.begin(), local.end());
    for (int r = 0; r < p; ++r) {
      if (r == rank) continue;
      blocks[static_cast<std::size_t>(r)] = comm.recv_doubles(r, tag);
    }
    return blocks;
  }

  // Tree: binomial gather of rank-labelled blocks at rank 0, then binomial
  // broadcast of the combined image — 2(p-1) messages, 2 ceil(log2 p) rounds.
  constexpr net::Rank kRoot = 0;
  std::vector<RankBlock> collected =
      gather_tree_blocks(comm, kRoot, local, tag);
  std::vector<std::byte> payload;
  if (rank == kRoot) {
    std::sort(collected.begin(), collected.end(),
              [](const RankBlock& a, const RankBlock& b) {
                return a.rank < b.rank;
              });
    payload = encode_blocks(collected);
  }
  broadcast_tree_bytes(comm, kRoot, payload, tag + 1);
  std::vector<RankBlock> all;
  decode_blocks_into(payload, all);
  net::BufferPool::local().release(std::move(payload));
  for (RankBlock& b : all)
    blocks[static_cast<std::size_t>(b.rank)] = std::move(b.values);
  return blocks;
}

double allreduce_sum(Communicator& comm, double value, int tag,
                     CollectiveAlgo algo) {
  return allreduce(comm, value, tag, algo,
                   [](double a, double b) { return a + b; });
}

double allreduce_max(Communicator& comm, double value, int tag,
                     CollectiveAlgo algo) {
  return allreduce(comm, value, tag, algo,
                   [](double a, double b) { return std::max(a, b); });
}

void dissemination_barrier(Communicator& comm, int tag) {
  const int p = comm.size();
  if (p <= 1) return;
  const int rank = comm.rank();
  for (int dist = 1; dist < p; dist <<= 1) {
    comm.send((rank + dist) % p, tag, {});
    net::Message msg = comm.recv((rank - dist + p) % p, tag);
    net::BufferPool::local().release(std::move(msg.payload));
  }
}

}  // namespace specomp::runtime
