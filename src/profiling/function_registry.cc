#include "profiling/function_registry.h"

#include <algorithm>

namespace hyperprof::profiling {

NameInterner::NameInterner() { names_.emplace_back(); }

NameId NameInterner::Intern(std::string_view name) {
  if (auto it = ids_.find(name); it != ids_.end()) return it->second;
  NameId id = static_cast<NameId>(names_.size());
  names_.emplace_back(name);
  ids_.emplace(std::string_view(names_.back()), id);
  return id;
}

NameId NameInterner::Find(std::string_view name) const {
  auto it = ids_.find(name);
  return it == ids_.end() ? kInvalidNameId : it->second;
}

std::string_view NameInterner::Name(NameId id) const {
  if (id >= names_.size()) return {};
  return names_[id];
}

size_t NameInterner::memory_bytes() const {
  // Per name: its string and heap buffer, plus one hash node (a view and
  // an id) and one bucket pointer.
  size_t bytes = names_.size() * (sizeof(std::string) + sizeof(void*) +
                                  sizeof(std::string_view) + sizeof(NameId));
  for (const std::string& name : names_) bytes += name.capacity();
  return bytes;
}

void FunctionRegistry::AddExact(std::string symbol, FnCategory category) {
  exact_[std::move(symbol)] = category;
}

void FunctionRegistry::AddPrefix(std::string prefix, FnCategory category) {
  prefixes_.emplace_back(std::move(prefix), category);
  // Keep longest-first so the first match is the most specific.
  std::stable_sort(prefixes_.begin(), prefixes_.end(),
                   [](const auto& a, const auto& b) {
                     return a.first.size() > b.first.size();
                   });
}

FnCategory FunctionRegistry::Classify(const std::string& symbol) const {
  if (auto it = exact_.find(symbol); it != exact_.end()) return it->second;
  for (const auto& [prefix, category] : prefixes_) {
    if (symbol.size() >= prefix.size() &&
        symbol.compare(0, prefix.size(), prefix) == 0) {
      return category;
    }
  }
  return FnCategory::kUncategorizedCore;
}

std::vector<std::string> FunctionRegistry::SymbolsFor(
    FnCategory category) const {
  std::vector<std::string> out;
  for (const auto& [symbol, cat] : exact_) {
    if (cat == category) out.push_back(symbol);
  }
  std::sort(out.begin(), out.end());
  return out;
}

FunctionRegistry BuildFleetRegistry() {
  FunctionRegistry registry;
  auto add = [&registry](FnCategory category,
                         std::initializer_list<const char*> symbols) {
    for (const char* symbol : symbols) {
      registry.AddExact(symbol, category);
    }
  };

  // --- Core compute: databases (Table 4) ---
  add(FnCategory::kRead,
      {"storage::RowReader::Next", "db::ReadContext::Fetch",
       "db::SnapshotRead::Apply", "btree::Cursor::SeekToKey"});
  add(FnCategory::kWrite,
      {"db::WriteBatch::Apply", "db::CommitContext::Finalize",
       "log::WriteAheadLog::Append", "db::MutationBuffer::Insert"});
  add(FnCategory::kCompaction,
      {"lsm::CompactionIterator::Next", "lsm::MergeSortedRuns",
       "sstable::TableBuilder::Add", "gc::RevisionSweeper::Sweep"});
  add(FnCategory::kConsensus,
      {"paxos::Acceptor::HandlePhase2", "paxos::Proposer::Propose",
       "replication::QuorumWaiter::Wait", "raftlike::LeaderLease::Renew"});
  add(FnCategory::kQuery,
      {"sql::Evaluator::EvalExpr", "sql::Planner::Optimize",
       "sql::RowCursor::Advance", "sql::PredicatePushdown::Apply"});
  add(FnCategory::kMiscCore,
      {"db::SchemaCache::Lookup", "db::SessionPool::Checkout",
       "db::StatsRecorder::Record"});

  // --- Core compute: analytics (Table 5) ---
  add(FnCategory::kAggregate,
      {"exec::HashAggregator::Consume", "exec::SortAggregator::Flush",
       "exec::AggregateHashTable::Upsert"});
  add(FnCategory::kCompute,
      {"exec::VectorizedEval::Run", "exec::ArithmeticKernel::Apply",
       "exec::ExprCompiler::Execute"});
  add(FnCategory::kDestructure,
      {"columnar::FieldAccessor::Get", "columnar::StructReader::Decode"});
  add(FnCategory::kFilter,
      {"exec::SelectionVector::Scan", "exec::PredicateFilter::Apply",
       "columnar::BitmapFilter::And"});
  add(FnCategory::kJoin,
      {"exec::HashJoinProbe::Probe", "exec::HashJoinBuild::Insert",
       "exec::SortMergeJoin::Advance"});
  add(FnCategory::kMaterialize,
      {"exec::RowMaterializer::Emit", "exec::ResultTable::Append"});
  add(FnCategory::kProject,
      {"columnar::ColumnReader::ReadBatch", "exec::Projection::Apply"});
  add(FnCategory::kSort,
      {"exec::ExternalSorter::SortRun", "exec::MergePath::Merge"});

  // --- Datacenter taxes (Table 2) ---
  add(FnCategory::kCompression,
      {"snappylike::RawCompress", "snappylike::RawUncompress",
       "zlibish::DeflateBlock", "zlibish::InflateBlock"});
  add(FnCategory::kCryptography,
      {"crypto::Sha3_256::Update", "crypto::AesGcm::Seal",
       "crypto::Hmac::Sign", "tls::RecordLayer::Encrypt"});
  add(FnCategory::kDataMovement,
      {"__memcpy_avx_unaligned", "__memmove_avx_unaligned",
       "copy_user_enhanced_fast_string"});
  add(FnCategory::kMemAllocation,
      {"tcmalloc::CentralFreeList::Remove", "tcmalloc::ThreadCache::Allocate",
       "operator new", "malloc_consolidate"});
  add(FnCategory::kProtobuf,
      {"proto2::Message::SerializeToArray", "proto2::Message::ParseFromArray",
       "proto2::io::CodedOutputStream::WriteVarint64",
       "proto2::MessageLite::ByteSizeLong"});
  add(FnCategory::kRpc,
      {"rpc::Channel::SendRequest", "rpc::ServerTransport::Dispatch",
       "rpc::Deadline::Propagate", "stubby::Call::StartBlocking"});

  // --- System taxes (Table 3) ---
  add(FnCategory::kEdac,
      {"crc32c::Extend", "ecc::ScrubBlock", "checksum::VerifyPage"});
  add(FnCategory::kFileSystems,
      {"dfs::Client::ReadBlock", "dfs::Client::WriteBlock",
       "ext4_file_read_iter", "vfs_read"});
  add(FnCategory::kOtherMemOps,
      {"__memset_avx2_unaligned", "page_fault", "clear_page_erms",
       "__memcmp_avx2_movbe"});
  add(FnCategory::kMultithreading,
      {"absl::Mutex::Lock", "pthread_cond_wait", "futex_wait",
       "absl::synchronization_internal::Waiter::Wait"});
  add(FnCategory::kNetworking,
      {"tcp_sendmsg", "tcp_recvmsg", "ip_finish_output2",
       "net::PacketDispatcher::Poll"});
  add(FnCategory::kOperatingSystems,
      {"do_syscall_64", "schedule", "ktime_get", "irq_exit_rcu",
       "clock_gettime"});
  add(FnCategory::kStl,
      {"std::__detail::_Map_base::operator[]",
       "std::basic_string::_M_mutate", "std::vector::_M_realloc_insert",
       "std::_Rb_tree::_M_insert_unique"});
  add(FnCategory::kMiscSystem,
      {"base::internal::SpinLockDelay", "logging::LogMessage::Flush",
       "monitoring::StreamzRecorder::Increment"});

  // Namespace-level fallbacks: catch symbols not in the curated set.
  registry.AddPrefix("paxos::", FnCategory::kConsensus);
  registry.AddPrefix("lsm::", FnCategory::kCompaction);
  registry.AddPrefix("sql::", FnCategory::kQuery);
  registry.AddPrefix("exec::", FnCategory::kCompute);
  registry.AddPrefix("proto2::", FnCategory::kProtobuf);
  registry.AddPrefix("rpc::", FnCategory::kRpc);
  registry.AddPrefix("tcmalloc::", FnCategory::kMemAllocation);
  registry.AddPrefix("crypto::", FnCategory::kCryptography);
  registry.AddPrefix("std::", FnCategory::kStl);
  registry.AddPrefix("tcp_", FnCategory::kNetworking);
  registry.AddPrefix("dfs::", FnCategory::kFileSystems);

  return registry;
}

}  // namespace hyperprof::profiling
