//===- Metrics.cpp - Metrics registry and export sinks -----------------------===//

#include "src/telemetry/Metrics.h"

#include <cstdio>

using namespace facile;
using namespace facile::telemetry;

void MetricRecording::replay(MetricSink &Sink) const {
  for (const Item &It : Items) {
    switch (It.K) {
    case Op::Begin:
      Sink.beginGroup(It.Name);
      break;
    case Op::End:
      Sink.endGroup();
      break;
    case Op::Counter:
      Sink.counter(It.Name, It.U);
      break;
    case Op::Real:
      Sink.gauge(It.Name, It.D);
      break;
    case Op::Int:
      Sink.gauge(It.Name, It.I);
      break;
    case Op::Flag:
      Sink.flag(It.Name, It.U != 0);
      break;
    case Op::Text:
      Sink.text(It.Name, It.Text);
      break;
    case Op::Hist:
      Sink.histogram(It.Name, Hists[It.U]);
      break;
    }
  }
}

void JsonMetricSink::histogram(std::string_view Name, const Histogram &H) {
  W.objectField(Name)
      .field("count", H.Count)
      .field("sum", H.Sum)
      .field("min", H.Count == 0 ? 0 : H.Min)
      .field("max", H.Max)
      .field("mean", H.mean());
  W.objectField("buckets");
  for (unsigned B = 0; B != 65; ++B) {
    if (H.Buckets[B] == 0)
      continue;
    char Key[24];
    std::snprintf(Key, sizeof(Key), "%llu",
                  static_cast<unsigned long long>(Histogram::bucketLo(B)));
    W.field(Key, H.Buckets[B]);
  }
  W.endObject(); // buckets
  W.endObject(); // the histogram object
}
