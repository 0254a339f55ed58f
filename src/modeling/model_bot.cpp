#include "modeling/model_bot.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <unordered_map>

#include "common/checksum.h"
#include "common/fault_injector.h"
#include "common/stats.h"
#include "common/thread_pool.h"
#include "obs/drift_monitor.h"
#include "obs/metrics_registry.h"
#include "obs/trace.h"

namespace mb2 {

namespace {

double SecondsSince(const std::chrono::steady_clock::time_point &start) {
  return std::chrono::duration_cast<std::chrono::duration<double>>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

TrainingReport ModelBot::TrainOuModels(const std::vector<OuRecord> &records,
                                       const std::vector<MlAlgorithm> &algorithms,
                                       bool normalize, uint64_t seed,
                                       ThreadPool *pool) {
  TrainingReport report;
  const auto start = std::chrono::steady_clock::now();
  auto datasets = GroupRecordsByOu(records);

  // Fit the eligible OUs into indexed slots so the parallel path aggregates
  // in the same deterministic (OuType-sorted) order as the serial one.
  std::vector<std::pair<OuType, const OuDataset *>> eligible;
  {
    std::unique_lock<std::shared_mutex> lock(models_mutex_);
    for (auto &[type, dataset] : datasets) {
      // Every observed OU contributes to the degraded-fallback table, even
      // the ones too small to train on — a rough mean beats a zero when the
      // model is later missing or corrupt.
      UpdateFallbackLabels(type, dataset.y);
      if (dataset.x.rows() < 10) continue;  // not enough data to split
      eligible.emplace_back(type, &dataset);
    }
  }
  std::vector<std::unique_ptr<OuModel>> fitted(eligible.size());
  // Sized here, outside models_mutex_: serializing a large model under the
  // exclusive lock below would stall PredictOus.
  std::vector<uint64_t> fitted_bytes(eligible.size());
  auto fit_one = [&](size_t i) {
    auto model = std::make_unique<OuModel>(eligible[i].first);
    model->Train(eligible[i].second->x, eligible[i].second->y, algorithms,
                 normalize, seed);
    fitted_bytes[i] = model->SerializedBytes();
    fitted[i] = std::move(model);
  };
  if (pool != nullptr) {
    for (size_t i = 0; i < eligible.size(); i++) {
      pool->Submit([&fit_one, i] { fit_one(i); });
    }
    pool->WaitAll();
  } else {
    for (size_t i = 0; i < eligible.size(); i++) fit_one(i);
  }

  std::unique_lock<std::shared_mutex> lock(models_mutex_);
  for (size_t i = 0; i < eligible.size(); i++) {
    const OuType type = eligible[i].first;
    auto model = std::move(fitted[i]);
    report.per_ou_test_error[type] = model->best_test_error();
    report.per_ou_algorithm[type] = model->best_algorithm();
    report.model_bytes += fitted_bytes[i];
    report.samples += eligible[i].second->x.rows();
    ou_models_[type] = std::move(model);
    ou_cache_.Invalidate(type);  // stale predictions must not outlive the model
  }
  report.train_seconds = SecondsSince(start);
  return report;
}

void ModelBot::RetrainOu(OuType type, const std::vector<OuRecord> &records,
                         const std::vector<MlAlgorithm> &algorithms,
                         bool normalize, uint64_t seed) {
  auto datasets = GroupRecordsByOu(records);
  auto it = datasets.find(type);
  if (it == datasets.end()) return;
  // Train outside the lock (the slow part); serving keeps answering from the
  // old model until the swap below.
  auto model = std::make_unique<OuModel>(type);
  model->Train(it->second.x, it->second.y, algorithms, normalize, seed);
  std::unique_lock<std::shared_mutex> lock(models_mutex_);
  UpdateFallbackLabels(type, it->second.y);
  ou_models_[type] = std::move(model);
  ou_cache_.Invalidate(type);
}

TrainingReport ModelBot::TrainInterferenceModel(
    const std::vector<OuRecord> &records,
    const std::vector<MlAlgorithm> &algorithms, uint64_t seed) {
  TrainingReport report;
  const auto start = std::chrono::steady_clock::now();
  InterferenceDataset dataset = [&] {
    std::shared_lock<std::shared_mutex> lock(models_mutex_);
    return BuildInterferenceDataset(records, ou_models_);
  }();
  // Cap the training-set size: concurrent runners emit one record per OU
  // invocation and can easily produce 10x more samples than the model needs.
  constexpr size_t kMaxSamples = 20000;
  if (dataset.x.rows() > kMaxSamples) {
    std::vector<size_t> idx(dataset.x.rows());
    for (size_t i = 0; i < idx.size(); i++) idx[i] = i;
    Rng rng(seed);
    rng.Shuffle(&idx);
    idx.resize(kMaxSamples);
    dataset.x = dataset.x.SelectRows(idx);
    dataset.y = dataset.y.SelectRows(idx);
  }
  if (dataset.x.rows() >= 10) {
    interference_.Train(dataset.x, dataset.y, algorithms, seed);
  }
  report.samples = dataset.x.rows();
  report.model_bytes = interference_.SerializedBytes();
  report.train_seconds = SecondsSince(start);
  return report;
}

const OuModel *ModelBot::GetOuModelUnlocked(OuType type) const {
  auto it = ou_models_.find(type);
  return it == ou_models_.end() ? nullptr : it->second.get();
}

const OuModel *ModelBot::GetOuModel(OuType type) const {
  std::shared_lock<std::shared_mutex> lock(models_mutex_);
  return GetOuModelUnlocked(type);
}

uint64_t ModelBot::TotalOuModelBytes() const {
  std::shared_lock<std::shared_mutex> lock(models_mutex_);
  uint64_t bytes = 0;
  for (const auto &[type, model] : ou_models_) bytes += model->SerializedBytes();
  return bytes;
}

void ModelBot::UpdateFallbackLabels(OuType type, const Matrix &y_raw) {
  if (y_raw.rows() == 0) return;
  Labels fallback{};
  for (size_t j = 0; j < kNumLabels && j < y_raw.cols(); j++) {
    std::vector<double> column(y_raw.rows());
    for (size_t r = 0; r < y_raw.rows(); r++) column[r] = y_raw.At(r, j);
    fallback[j] = TrimmedMean(std::move(column));
  }
  fallback_labels_[type] = fallback;
}

std::vector<Labels> ModelBot::PredictOus(const std::vector<TranslatedOu> &ous,
                                         uint32_t *degraded_ous,
                                         ThreadPool *pool) const {
  std::vector<Labels> results(ous.size());
  if (ous.empty()) return results;
  ObsSpan span("modelbot.predict_ous");
  static Counter &predicted =
      MetricsRegistry::Instance().GetCounter("mb2_predict_ous_total");
  predicted.Add(ous.size());
  if (settings_ != nullptr) {
    // Only touch the cache bound when the knob actually moved; SetCapacity
    // takes every shard lock, which would serialize concurrent serving.
    const size_t want = static_cast<size_t>(
        std::max(0.0, settings_->GetDouble("ou_cache_capacity")));
    if (want != ou_cache_.capacity()) ou_cache_.SetCapacity(want);
  }
  // The simulated-hardware context feature is part of the model input, so it
  // must be part of the cache key too.
  const bool with_context = SimulatedHardware::AppendContextFeature();
  const double context_freq =
      with_context ? SimulatedHardware::EffectiveFreqGhz() : 0.0;

  // Hold the model set stable (shared) for the whole batch: a concurrent
  // RetrainDrifted must not swap a model out from under PredictBatch. Pool
  // workers below run while this thread owns the shared lock, which is what
  // keeps writers out — the workers themselves never lock (no recursion).
  std::shared_lock<std::shared_mutex> models_lock(models_mutex_);

  // Serve model-less OUs from the fallback table immediately; group the rest
  // by type, keeping each group's indexes in input order.
  std::vector<std::vector<size_t>> groups(kNumOuTypes);
  uint32_t fell_back = 0;
  for (size_t i = 0; i < ous.size(); i++) {
    if (GetOuModelUnlocked(ous[i].type) == nullptr) {
      fell_back++;
      auto it = fallback_labels_.find(ous[i].type);
      if (it != fallback_labels_.end()) results[i] = it->second;
      continue;
    }
    groups[static_cast<size_t>(ous[i].type)].push_back(i);
  }

  auto serve_type = [&](size_t type_idx) {
    const std::vector<size_t> &idxs = groups[type_idx];
    if (idxs.empty()) return;
    const OuType type = static_cast<OuType>(type_idx);
    const OuModel &model = *GetOuModelUnlocked(type);

    // Cache pass: hits are answered in place; misses are deduplicated so the
    // model sees each distinct feature vector once.
    std::vector<FeatureVector> miss_features;
    std::unordered_map<FeatureVector, size_t, FeatureVectorHash> miss_slots;
    std::vector<int64_t> slot_of(idxs.size(), -1);
    for (size_t n = 0; n < idxs.size(); n++) {
      FeatureVector key = ous[idxs[n]].features;
      if (with_context) key.push_back(context_freq);
      Labels cached;
      if (ou_cache_.Lookup(type, key, &cached)) {
        results[idxs[n]] = cached;
        continue;
      }
      auto [it, inserted] = miss_slots.try_emplace(std::move(key),
                                                   miss_features.size());
      if (inserted) miss_features.push_back(it->first);
      slot_of[n] = static_cast<int64_t>(it->second);
    }
    if (miss_features.empty()) return;

    std::vector<Labels> predicted;
    model.PredictBatch(miss_features, &predicted);
    for (size_t s = 0; s < miss_features.size(); s++) {
      ou_cache_.Insert(type, miss_features[s], predicted[s]);
    }
    for (size_t n = 0; n < idxs.size(); n++) {
      if (slot_of[n] >= 0) {
        results[idxs[n]] = predicted[static_cast<size_t>(slot_of[n])];
      }
    }
  };

  if (pool != nullptr) {
    for (size_t t = 0; t < kNumOuTypes; t++) {
      if (groups[t].empty()) continue;
      pool->Submit([&serve_type, t] { serve_type(t); });
    }
    pool->WaitAll();
  } else {
    for (size_t t = 0; t < kNumOuTypes; t++) serve_type(t);
  }

  if (degraded_ous != nullptr) *degraded_ous += fell_back;
  return results;
}

DriftReport ModelBot::CheckDrift() const {
  DriftMonitor &monitor = DriftMonitor::Instance();
  DriftReport report;
  const std::vector<OuRecord> samples = monitor.DrainSamples();
  {
    // One shared lock across the scoring loop: concurrent serving threads
    // also read-lock, while a RetrainDrifted on another thread queues behind
    // everyone — a sample is always scored against a consistent model.
    std::shared_lock<std::shared_mutex> lock(models_mutex_);
    for (const OuRecord &sample : samples) {
      const OuModel *model = GetOuModelUnlocked(sample.ou);
      if (model == nullptr) continue;  // nothing deployed to drift from
      const Labels predicted = model->Predict(sample.features);
      const double observed = sample.labels[kLabelElapsedUs];
      const double error = std::fabs(predicted[kLabelElapsedUs] - observed) /
                           std::max(observed, 1.0);
      monitor.RecordError(sample.ou, error);
      report.processed++;
    }
  }
  MetricsRegistry::Instance()
      .GetCounter("mb2_drift_samples_total")
      .Add(report.processed);
  for (size_t t = 0; t < kNumOuTypes; t++) {
    const OuType type = static_cast<OuType>(t);
    const uint64_t in_window = monitor.ErrorCount(type);
    if (in_window == 0) continue;
    report.rolling_error[type] = monitor.RollingError(type);
    report.window_samples[type] = in_window;
  }
  report.drifted = monitor.DriftedOus();
  return report;
}

size_t ModelBot::RetrainDrifted(
    const DriftReport &report,
    const std::function<std::vector<OuRecord>(OuType)> &provider,
    const std::vector<MlAlgorithm> &algorithms, bool normalize, uint64_t seed) {
  size_t retrained = 0;
  for (OuType type : report.drifted) {
    const std::vector<OuRecord> records = provider(type);
    if (records.empty()) continue;  // runner produced nothing; keep old model
    RetrainOu(type, records, algorithms, normalize, seed);
    DriftMonitor::Instance().Reset(type);
    MetricsRegistry::Instance()
        .GetCounter("mb2_drift_retrains_total")
        .Add();
    retrained++;
  }
  return retrained;
}

void ModelBot::ExportObsMetrics() const {
  const PredictionCacheStats stats = ou_cache_.stats();
  MetricsRegistry &reg = MetricsRegistry::Instance();
  reg.GetGauge("mb2_ou_cache_hits").Set(static_cast<double>(stats.hits));
  reg.GetGauge("mb2_ou_cache_misses").Set(static_cast<double>(stats.misses));
  reg.GetGauge("mb2_ou_cache_evictions")
      .Set(static_cast<double>(stats.evictions));
  reg.GetGauge("mb2_ou_cache_entries").Set(static_cast<double>(stats.entries));
  reg.GetGauge("mb2_ou_cache_hit_rate").Set(stats.HitRate());
}

QueryPrediction ModelBot::PredictQuery(const PlanNode &plan,
                                       double exec_mode_override) const {
  return PredictTranslated(translator_.TranslateQuery(plan, exec_mode_override));
}

QueryPrediction ModelBot::PredictAction(const Action &action) const {
  return PredictTranslated(translator_.TranslateAction(action));
}

QueryPrediction ModelBot::PredictTranslated(std::vector<TranslatedOu> ous) const {
  QueryPrediction prediction;
  prediction.ous = std::move(ous);
  prediction.total.fill(0.0);
  prediction.per_ou = PredictOus(prediction.ous, &prediction.degraded_ous);
  for (const Labels &labels : prediction.per_ou) {
    for (size_t j = 0; j < kNumLabels; j++) prediction.total[j] += labels[j];
  }
  prediction.degraded = prediction.degraded_ous > 0;
  return prediction;
}

IntervalPrediction ModelBot::PredictInterval(
    const WorkloadForecast &forecast, const std::vector<Action> &actions) const {
  IntervalPrediction out;
  out.interval_totals.fill(0.0);
  out.action_labels.fill(0.0);

  const uint32_t threads = std::max(1u, forecast.num_threads);
  const double interval_us = forecast.interval_s * 1e6;

  // 1. Predict per-execution labels for each template.
  struct EntryPrediction {
    const ForecastEntry *entry;
    QueryPrediction isolated;
    double executions;
  };
  std::vector<EntryPrediction> entries;
  for (const auto &entry : forecast.entries) {
    if (entry.plan == nullptr) continue;
    EntryPrediction ep;
    ep.entry = &entry;
    ep.isolated = PredictQuery(*entry.plan);
    if (ep.isolated.degraded) out.degraded = true;
    ep.executions = entry.arrival_rate * forecast.interval_s;
    entries.push_back(std::move(ep));
  }

  // 2. Per-thread predicted totals, scaled to the interference model's
  //    training window so summaries are load intensities, not interval sums.
  const double window_scale =
      InterferenceModel::kWindowUs / std::max(1.0, interval_us);
  std::vector<Labels> per_thread(threads);
  for (auto &labels : per_thread) labels.fill(0.0);
  for (const auto &ep : entries) {
    for (uint32_t t = 0; t < threads; t++) {
      const double share = ep.executions / threads * window_scale;
      for (size_t j = 0; j < kNumLabels; j++) {
        per_thread[t][j] += ep.isolated.total[j] * share;
      }
    }
  }

  // Maintenance + transaction OUs are spread across all threads.
  std::vector<TranslatedOu> maintenance =
      translator_.TranslateIntervalMaintenance(forecast);
  {
    const auto txns = translator_.TranslateTransactions(forecast);
    maintenance.insert(maintenance.end(), txns.begin(), txns.end());
  }
  uint32_t maintenance_degraded = 0;
  const std::vector<Labels> maintenance_pred =
      PredictOus(maintenance, &maintenance_degraded);
  if (maintenance_degraded > 0) out.degraded = true;
  for (const Labels &labels : maintenance_pred) {
    for (uint32_t t = 0; t < threads; t++) {
      for (size_t j = 0; j < kNumLabels; j++) {
        per_thread[t][j] += labels[j] / threads * window_scale;
      }
    }
  }

  // Actions: index builds run on their own worker threads, which contribute
  // load for the fraction of the interval the build is active.
  std::vector<std::pair<const Action *, QueryPrediction>> action_preds;
  for (const auto &action : actions) {
    QueryPrediction ap = PredictAction(action);
    if (ap.ous.empty()) continue;
    if (ap.degraded) out.degraded = true;
    const double build_elapsed = ap.total[kLabelElapsedUs];
    const double active_fraction =
        std::min(1.0, build_elapsed / std::max(1.0, interval_us));
    const uint32_t build_threads = std::max(1u, action.build_threads);
    for (uint32_t t = 0; t < build_threads; t++) {
      Labels thread_load{};
      for (size_t j = 0; j < kNumLabels; j++) {
        // Per-build-thread share of the build's resources, as an intensity
        // over the training window.
        thread_load[j] = ap.total[j] / build_threads * active_fraction *
                         (InterferenceModel::kWindowUs /
                          std::max(1.0, build_elapsed));
      }
      per_thread.push_back(thread_load);
    }
    action_preds.emplace_back(&action, std::move(ap));
  }

  // 3. Adjust every OU's prediction with the interference model and
  //    aggregate per query template. All the ratio queries share the (now
  //    final) per-thread totals, so they run as ONE batched prediction in
  //    input order and are consumed from a cursor in the same order.
  std::vector<Labels> ratio_targets;
  for (const auto &ep : entries) {
    for (const Labels &pred : ep.isolated.per_ou) ratio_targets.push_back(pred);
  }
  ratio_targets.insert(ratio_targets.end(), maintenance_pred.begin(),
                       maintenance_pred.end());
  for (const auto &[action, ap] : action_preds) ratio_targets.push_back(ap.total);
  const std::vector<Labels> all_ratios =
      interference_.AdjustmentRatiosBatch(ratio_targets, per_thread);
  size_t ratio_cursor = 0;

  double weighted_latency = 0.0;
  double total_rate = 0.0;
  double total_cpu_us = 0.0;
  for (const auto &ep : entries) {
    double adjusted_elapsed = 0.0;
    for (size_t i = 0; i < ep.isolated.ous.size(); i++) {
      const Labels &pred = ep.isolated.per_ou[i];
      const Labels &ratios = all_ratios[ratio_cursor++];
      for (size_t j = 0; j < kNumLabels; j++) {
        const double adj = pred[j] * ratios[j];
        out.interval_totals[j] += adj * ep.executions;
        if (j == kLabelElapsedUs) adjusted_elapsed += adj;
        if (j == kLabelCpuTimeUs) total_cpu_us += adj * ep.executions;
      }
    }
    out.query_elapsed_us[ep.entry->label] = adjusted_elapsed;
    weighted_latency += adjusted_elapsed * ep.entry->arrival_rate;
    total_rate += ep.entry->arrival_rate;
  }
  out.avg_query_elapsed_us = total_rate > 0.0 ? weighted_latency / total_rate : 0.0;

  for (size_t i = 0; i < maintenance.size(); i++) {
    const Labels &pred = maintenance_pred[i];
    const Labels &ratios = all_ratios[ratio_cursor++];
    for (size_t j = 0; j < kNumLabels; j++) {
      out.interval_totals[j] += pred[j] * ratios[j];
    }
    total_cpu_us += pred[kLabelCpuTimeUs] * ratios[kLabelCpuTimeUs];
  }

  double action_cpu_us = 0.0;
  for (const auto &[action, ap] : action_preds) {
    const Labels &ratios = all_ratios[ratio_cursor++];
    for (size_t j = 0; j < kNumLabels; j++) {
      out.action_labels[j] += ap.total[j] * ratios[j];
    }
    action_cpu_us += ap.total[kLabelCpuTimeUs] * ratios[kLabelCpuTimeUs];
  }
  out.action_elapsed_us = out.action_labels[kLabelElapsedUs];

  // CPU utilization relative to one core over the window the work occupies.
  const double action_window_us =
      actions.empty() ? interval_us
                      : std::min(interval_us, std::max(1.0, out.action_elapsed_us));
  out.cpu_utilization = (total_cpu_us + action_cpu_us) / interval_us;
  out.action_cpu_utilization = action_cpu_us / action_window_us;
  return out;
}


namespace {
constexpr uint32_t kModelFileMagic = 0x4d42324dU;  // "MB2M"
// v2: adds the degraded-fallback label table and a trailing CRC32 footer.
constexpr uint32_t kModelFileVersion = 2;
}  // namespace

Status ModelBot::SaveModels(const std::string &dir) const {
  const std::string final_path = dir + "/mb2_models.bin";
  const std::string tmp_path = final_path + ".tmp";

  ByteWriter w;
  {
    std::shared_lock<std::shared_mutex> lock(models_mutex_);
    w.Put<uint32_t>(kModelFileMagic);
    w.Put<uint32_t>(kModelFileVersion);
    w.Put<uint32_t>(static_cast<uint32_t>(ou_models_.size()));
    for (const auto &[type, model] : ou_models_) model->Save(&w);
    w.Put<uint32_t>(static_cast<uint32_t>(fallback_labels_.size()));
    for (const auto &[type, labels] : fallback_labels_) {
      w.Put<uint8_t>(static_cast<uint8_t>(type));
      for (size_t j = 0; j < kNumLabels; j++) w.Put<double>(labels[j]);
    }
    interference_.Save(&w);
  }
  // Seal the payload with a CRC32 footer so any later truncation or bit rot
  // is detected at load time.
  w.Put<uint32_t>(Crc32(w.bytes().data(), w.size()));

  FILE *f = std::fopen(tmp_path.c_str(), "wb");
  if (f == nullptr) return Status::IoError("cannot open " + tmp_path);
  const bool wrote = std::fwrite(w.bytes().data(), 1, w.size(), f) == w.size();
  if (std::fclose(f) != 0 || !wrote) {
    std::remove(tmp_path.c_str());
    return Status::IoError("short write while saving models to " + tmp_path);
  }

  // Simulated save failure: the crash happens before the atomic rename, so
  // at worst a partial .tmp file survives and the deployed set is untouched.
  if (FaultInjector::Instance().Armed()) {
    const FaultCheck fc =
        FaultInjector::Instance().Hit(fault_point::kPersistenceWrite);
    if (fc.fire) {
      if (fc.action == FaultAction::kThrow) throw InjectedFault(fc.message);
      if (fc.action == FaultAction::kTornWrite) {
        std::error_code ec;
        std::filesystem::resize_file(
            tmp_path,
            static_cast<uintmax_t>(static_cast<double>(w.size()) *
                                   fc.torn_fraction),
            ec);
      } else {
        std::remove(tmp_path.c_str());
      }
      return fc.ToStatus(fault_point::kPersistenceWrite);
    }
  }

  if (std::rename(tmp_path.c_str(), final_path.c_str()) != 0) {
    std::remove(tmp_path.c_str());
    return Status::IoError("cannot rename " + tmp_path + " into place");
  }
  return Status::Ok();
}

Status ModelBot::LoadModels(const std::string &dir) {
  const std::string path = dir + "/mb2_models.bin";

  if (FaultInjector::Instance().Armed()) {
    const FaultCheck fc =
        FaultInjector::Instance().Hit(fault_point::kPersistenceRead);
    if (fc.fire) {
      if (fc.action == FaultAction::kThrow) throw InjectedFault(fc.message);
      return fc.ToStatus(fault_point::kPersistenceRead);
    }
  }

  std::vector<uint8_t> bytes;
  {
    FILE *f = std::fopen(path.c_str(), "rb");
    if (f == nullptr) return Status::IoError("cannot open " + path);
    uint8_t buf[1 << 14];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
      bytes.insert(bytes.end(), buf, buf + n);
    }
    const bool failed = std::ferror(f) != 0;
    std::fclose(f);
    if (failed) return Status::IoError("cannot read " + path);
  }

  // Checksum gate: the payload's CRC must match the footer before a single
  // byte is parsed.
  if (bytes.size() < sizeof(uint32_t)) {
    return Status::InvalidArgument(path + " shorter than its checksum footer");
  }
  const size_t payload = bytes.size() - sizeof(uint32_t);
  uint32_t stored = 0;
  std::memcpy(&stored, bytes.data() + payload, sizeof(stored));
  if (stored != Crc32(bytes.data(), payload)) {
    return Status::InvalidArgument("model file checksum mismatch: " + path);
  }

  ByteReader r(bytes.data(), payload);
  if (r.Get<uint32_t>() != kModelFileMagic) {
    return Status::InvalidArgument("not an MB2 model file");
  }
  if (r.Get<uint32_t>() != kModelFileVersion) {
    return Status::InvalidArgument("unsupported model file version");
  }
  const uint32_t count = r.Get<uint32_t>();
  std::map<OuType, std::unique_ptr<OuModel>> loaded;
  for (uint32_t i = 0; i < count && r.ok(); i++) {
    auto model = OuModel::Load(&r);
    if (model == nullptr) return Status::InvalidArgument("corrupt OU-model");
    const OuType type = model->type();
    loaded[type] = std::move(model);
  }
  std::map<OuType, Labels> fallback;
  const uint32_t fallback_count = r.Get<uint32_t>();
  if (!r.ok() || fallback_count > kNumOuTypes) {
    return Status::InvalidArgument("corrupt fallback table");
  }
  for (uint32_t i = 0; i < fallback_count && r.ok(); i++) {
    const uint8_t type_tag = r.Get<uint8_t>();
    if (type_tag >= kNumOuTypes) {
      return Status::InvalidArgument("corrupt fallback table");
    }
    Labels labels{};
    for (size_t j = 0; j < kNumLabels; j++) labels[j] = r.Get<double>();
    fallback[static_cast<OuType>(type_tag)] = labels;
  }
  interference_.LoadFrom(&r);
  if (!r.ok() || r.RemainingBytes() != 0) {
    return Status::InvalidArgument("corrupt model file");
  }
  std::unique_lock<std::shared_mutex> lock(models_mutex_);
  ou_models_ = std::move(loaded);
  fallback_labels_ = std::move(fallback);
  ou_cache_.InvalidateAll();  // new model set: cached predictions are stale
  return Status::Ok();
}

}  // namespace mb2
