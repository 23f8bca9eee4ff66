#include "txlog/log_manager.h"

#include <algorithm>

namespace oodb::txlog {

LogManager::LogManager(uint32_t buffer_bytes, uint32_t page_size_bytes,
                       uint32_t record_header_bytes)
    : capacity_(buffer_bytes),
      page_size_(page_size_bytes),
      header_(record_header_bytes) {
  OODB_CHECK_GT(buffer_bytes, 0u);
  OODB_CHECK_GT(page_size_bytes, 0u);
  // A before-image record must fit in the buffer.
  OODB_CHECK_GE(buffer_bytes, page_size_bytes + record_header_bytes);
}

void LogManager::Begin(TxnId txn) {
  OODB_CHECK(touched_.map.find(txn) == touched_.map.end());
  touched_[txn];
}

int LogManager::Append(uint32_t payload) {
  const uint32_t record = header_ + payload;
  int flushes = 0;
  if (buffered_ + record > capacity_) {
    // Circular buffer full: flush it (one physical write of the log tail).
    ++flushes_;
    ++flushes;
    if (trace_ != nullptr) {
      trace_->Record(obs::Subsystem::kTxlog, obs::TraceEventType::kLogFlush,
                     buffered_, records_ - records_at_last_flush_);
    }
    records_at_last_flush_ = records_;
    buffered_ = 0;
    if (records_ > 0) {
      // Everything appended so far is on disk.
      durable_lsn_ = records_ - 1;
      any_flush_ = true;
    }
  }
  buffered_ += record;
  ++records_;
  bytes_appended_ += record;
  return flushes;
}

void LogManager::Journal(LogRecordType type, TxnId txn, store::PageId page,
                         uint32_t payload) {
  if (!journal_enabled_) return;
  LogRecord r;
  r.lsn = journal_.size();
  r.type = type;
  r.txn = txn;
  r.page = page;
  r.payload_bytes = payload;
  journal_.push_back(r);
}

int LogManager::LogWrite(TxnId txn, store::PageId page,
                         uint32_t object_size) {
  auto it = touched_.map.find(txn);
  OODB_CHECK(it != touched_.map.end());
  std::vector<store::PageId>& pages = it->second;
  const auto at = std::lower_bound(pages.begin(), pages.end(), page);
  int flushes = 0;
  if (at == pages.end() || *at != page) {
    pages.insert(at, page);
    // First touch of this page by this transaction: page before-image.
    ++before_images_;
    Journal(LogRecordType::kBeforeImage, txn, page,
            page_size_);
    flushes += Append(page_size_);
  }
  Journal(LogRecordType::kRedo, txn, page,
          object_size);
  flushes += Append(object_size);
  return flushes;
}

int LogManager::Commit(TxnId txn, bool force) {
  Forget(txn);
  Journal(LogRecordType::kCommit, txn, store::kInvalidPage, 16);
  int flushes = Append(/*payload=*/16);  // commit record
  if (force && buffered_ > 0) {
    ++flushes_;
    ++flushes;
    if (trace_ != nullptr) {
      trace_->Record(obs::Subsystem::kTxlog, obs::TraceEventType::kLogFlush,
                     buffered_, records_ - records_at_last_flush_);
    }
    records_at_last_flush_ = records_;
    buffered_ = 0;
    durable_lsn_ = records_ - 1;
    any_flush_ = true;
  }
  return flushes;
}

std::vector<store::PageId> LogManager::TouchedPages(TxnId txn) const {
  auto it = touched_.map.find(txn);
  OODB_CHECK(it != touched_.map.end());
  return it->second;
}

void LogManager::Abort(TxnId txn) { Forget(txn); }

void LogManager::Forget(TxnId txn) {
  auto it = touched_.map.find(txn);
  OODB_CHECK(it != touched_.map.end());
  it->second.clear();
  touched_.Retire(it);
}

void LogManager::ResetCounters() {
  records_ = before_images_ = bytes_appended_ = flushes_ = 0;
  journal_.clear();
  durable_lsn_ = 0;
  any_flush_ = false;
}

}  // namespace oodb::txlog
