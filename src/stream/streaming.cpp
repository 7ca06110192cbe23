#include "stream/streaming.h"

#include <algorithm>
#include <cstdio>

namespace jstar::stream {

void StreamReport::absorb(const EpochStats& e) {
  ++epochs;
  ingested += e.ingested;
  batches += e.batches;
  tuples += e.tuples;
  messages += e.messages;
  mail_epochs += e.mail_epochs;
  *this += e;
  max_epoch_ingested = std::max(max_epoch_ingested, e.ingested);
  busy_seconds += e.seconds;
}

double StreamReport::tuples_per_second() const {
  return busy_seconds > 0.0 ? static_cast<double>(ingested) / busy_seconds
                            : 0.0;
}

std::string StreamReport::summary() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "%lld epochs, %lld ingested (max %lld/epoch), %lld batches, "
                "%lld tuples, %lld retired (+%lld index), %.3f s busy, "
                "%.0f tuples/s",
                static_cast<long long>(epochs),
                static_cast<long long>(ingested),
                static_cast<long long>(max_epoch_ingested),
                static_cast<long long>(batches),
                static_cast<long long>(tuples),
                static_cast<long long>(gamma_retired),
                static_cast<long long>(index_retired), busy_seconds,
                tuples_per_second());
  return std::string(buf);
}

}  // namespace jstar::stream
