// Sensor calibration: the paper's introductory motivation (Section 1.1).
//
// A tympanic thermometer reads body temperature with a calibration error of
// about +-0.2 C - a large fraction of the 37-40 C diagnostic range. This
// example simulates a triage data set: each patient's *true* temperature
// and heart rate determine the class (healthy / mild fever / severe fever),
// but the classifier only sees noisy instrument readings. Modelling the
// instrument error as a Gaussian pdf around each reading (UDT) recovers
// accuracy that plain averaging (AVG) loses to the noise.
//
// Run: build/examples/sensor_calibration

#include <cstdio>

#include "api/predict_session.h"
#include "api/trainer.h"
#include "common/random.h"
#include "eval/metrics.h"
#include "pdf/pdf_builder.h"
#include "table/dataset.h"

namespace {

struct Patient {
  double measured_temperature;  // single noisy reading, deg C
  double measured_heart_rate;   // single noisy reading, bpm
  int label;                    // 0 healthy, 1 mild fever, 2 severe fever
};

// True physiology -> class; instrument adds Gaussian error.
std::vector<Patient> SimulateTriage(int n, double thermometer_sigma,
                                    double hr_sigma, udt::Rng* rng) {
  std::vector<Patient> patients;
  patients.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    int label = i % 3;
    double true_temp = label == 0   ? rng->Gaussian(36.8, 0.25)
                       : label == 1 ? rng->Gaussian(38.0, 0.35)
                                    : rng->Gaussian(39.5, 0.4);
    double true_hr = label == 0   ? rng->Gaussian(70.0, 8.0)
                     : label == 1 ? rng->Gaussian(85.0, 9.0)
                                  : rng->Gaussian(105.0, 12.0);
    patients.push_back(Patient{
        true_temp + rng->Gaussian(0.0, thermometer_sigma),
        true_hr + rng->Gaussian(0.0, hr_sigma),
        label,
    });
  }
  return patients;
}

// Builds the uncertain data set: every reading becomes a pdf centred at the
// reading whose width matches the instrument's quoted error (4 sigma wide,
// matching the paper's sigma = width/4 convention).
udt::Dataset ToUncertainDataset(const std::vector<Patient>& patients,
                                double thermometer_sigma, double hr_sigma,
                                int samples_per_pdf) {
  udt::Dataset ds(udt::Schema::Numerical(
      2, {"healthy", "mild-fever", "severe-fever"}));
  for (const Patient& p : patients) {
    auto temp_pdf = udt::MakeGaussianErrorPdf(
        p.measured_temperature, 4.0 * thermometer_sigma, samples_per_pdf);
    auto hr_pdf = udt::MakeGaussianErrorPdf(p.measured_heart_rate,
                                            4.0 * hr_sigma, samples_per_pdf);
    UDT_CHECK(temp_pdf.ok() && hr_pdf.ok());
    udt::UncertainTuple t;
    t.label = p.label;
    t.values.push_back(udt::UncertainValue::Numerical(std::move(*temp_pdf)));
    t.values.push_back(udt::UncertainValue::Numerical(std::move(*hr_pdf)));
    UDT_CHECK(ds.AddTuple(std::move(t)).ok());
  }
  return ds;
}

}  // namespace

int main() {
  // Quoted instrument errors: 0.2 C calibration + technique (Section 1.1
  // cites ~24% of readings off by > 0.5 C), 5 bpm for the pulse sensor.
  const double kThermometerSigma = 0.45;
  const double kHeartRateSigma = 5.0;
  const int kSamplesPerPdf = 64;

  udt::Rng rng(2026);
  std::vector<Patient> patients = SimulateTriage(900, kThermometerSigma,
                                                 kHeartRateSigma, &rng);
  udt::Dataset ds = ToUncertainDataset(patients, kThermometerSigma,
                                       kHeartRateSigma, kSamplesPerPdf);

  auto [train, test] = ds.RandomSplit(0.3, &rng);
  std::printf("triage data: %d training / %d test patients, classes "
              "healthy / mild-fever / severe-fever\n",
              train.num_tuples(), test.num_tuples());
  std::printf("instrument model: temperature sigma %.2f C, heart-rate sigma "
              "%.1f bpm, %d samples per pdf\n\n",
              kThermometerSigma, kHeartRateSigma, kSamplesPerPdf);

  udt::TreeConfig config;
  config.algorithm = udt::SplitAlgorithm::kUdtEs;
  udt::Trainer trainer(config);

  // Both model kinds are served the same way: compile once, evaluate
  // through a reusable session.
  auto avg = trainer.TrainAveraging(train);
  UDT_CHECK(avg.ok());
  udt::PredictSession avg_session(avg->Compile());
  udt::ConfusionMatrix avg_matrix = udt::EvaluateConfusion(avg_session, test);
  std::printf("AVG (readings as point values):  accuracy %.4f\n",
              avg_matrix.Accuracy());

  auto dist = trainer.TrainUdt(train);
  UDT_CHECK(dist.ok());
  udt::PredictSession udt_session(dist->Compile());
  udt::ConfusionMatrix udt_matrix = udt::EvaluateConfusion(udt_session, test);
  std::printf("UDT (instrument-error pdfs):     accuracy %.4f\n\n",
              udt_matrix.Accuracy());

  std::printf("UDT confusion matrix:\n%s\n",
              udt_matrix.ToString(ds.schema().class_names()).c_str());

  // A borderline patient: reading 37.9 C / 88 bpm. The probabilistic
  // output exposes the diagnostic ambiguity a point prediction hides.
  auto temp_pdf =
      udt::MakeGaussianErrorPdf(37.9, 4.0 * kThermometerSigma, kSamplesPerPdf);
  auto hr_pdf =
      udt::MakeGaussianErrorPdf(88.0, 4.0 * kHeartRateSigma, kSamplesPerPdf);
  UDT_CHECK(temp_pdf.ok() && hr_pdf.ok());
  udt::UncertainTuple borderline;
  borderline.label = 0;
  borderline.values.push_back(
      udt::UncertainValue::Numerical(std::move(*temp_pdf)));
  borderline.values.push_back(
      udt::UncertainValue::Numerical(std::move(*hr_pdf)));
  std::vector<double> p(static_cast<size_t>(ds.num_classes()));
  udt_session.ClassifyInto(borderline, p.data());
  std::printf("borderline patient (37.9 C, 88 bpm):\n");
  for (int c = 0; c < ds.num_classes(); ++c) {
    std::printf("  P(%-12s) = %.3f\n", ds.schema().class_name(c).c_str(),
                p[static_cast<size_t>(c)]);
  }
  return 0;
}
