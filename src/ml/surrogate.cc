#include "ml/surrogate.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "common/logging.hh"

namespace adaptsim::ml
{

namespace
{

/**
 * Solve the symmetric positive-definite system A w = b in place via
 * Cholesky (A = L Lᵀ).  A is n×n row-major.  The ridge term keeps A
 * strictly positive definite; a tiny diagonal jitter covers exact
 * rank deficiency from constant feature columns.
 */
std::vector<double>
choleskySolve(std::vector<double> a, std::vector<double> b,
              std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        a[i * n + i] += 1e-10;
    // Factor: lower triangle of a becomes L.
    for (std::size_t j = 0; j < n; ++j) {
        double d = a[j * n + j];
        for (std::size_t k = 0; k < j; ++k)
            d -= a[j * n + k] * a[j * n + k];
        if (d <= 0.0)
            d = 1e-12;
        const double l = std::sqrt(d);
        a[j * n + j] = l;
        for (std::size_t i = j + 1; i < n; ++i) {
            double s = a[i * n + j];
            for (std::size_t k = 0; k < j; ++k)
                s -= a[i * n + k] * a[j * n + k];
            a[i * n + j] = s / l;
        }
    }
    // Forward substitution: L y = b.
    for (std::size_t i = 0; i < n; ++i) {
        double s = b[i];
        for (std::size_t k = 0; k < i; ++k)
            s -= a[i * n + k] * b[k];
        b[i] = s / a[i * n + i];
    }
    // Back substitution: Lᵀ w = y.
    for (std::size_t ii = n; ii-- > 0;) {
        double s = b[ii];
        for (std::size_t k = ii + 1; k < n; ++k)
            s -= a[k * n + ii] * b[k];
        b[ii] = s / a[ii * n + ii];
    }
    return b;
}

/**
 * Ridge fit on pre-standardized rows @p z (each ending in the bias
 * 1): minimises ||Z w - y||² + λ n ||w_nonbias||².  @p skip_stride
 * holds out every skip_stride-th sample starting at @p skip_phase
 * (0 stride = use everything).
 */
std::vector<double>
ridgeFit(const std::vector<std::vector<double>> &z,
         const std::vector<double> &y, double lambda,
         std::size_t skip_stride, std::size_t skip_phase)
{
    const std::size_t d = z.front().size();
    std::vector<double> a(d * d, 0.0);
    std::vector<double> b(d, 0.0);
    std::size_t used = 0;
    for (std::size_t s = 0; s < z.size(); ++s) {
        if (skip_stride > 0 && s % skip_stride == skip_phase)
            continue;
        ++used;
        const auto &row = z[s];
        for (std::size_t i = 0; i < d; ++i) {
            b[i] += row[i] * y[s];
            for (std::size_t j = i; j < d; ++j)
                a[i * d + j] += row[i] * row[j];
        }
    }
    for (std::size_t i = 0; i < d; ++i)
        for (std::size_t j = 0; j < i; ++j)
            a[i * d + j] = a[j * d + i];
    // Regularise every weight but the trailing bias.
    const double reg = lambda * static_cast<double>(used);
    for (std::size_t i = 0; i + 1 < d; ++i)
        a[i * d + i] += reg;
    return choleskySolve(std::move(a), std::move(b), d);
}

double
dot(const std::vector<double> &w, const std::vector<double> &z)
{
    double s = 0.0;
    for (std::size_t i = 0; i < w.size(); ++i)
        s += w[i] * z[i];
    return s;
}

/** One hex-float token: exact round-trip through text. */
std::string
hexDouble(double v)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%a", v);
    return buf;
}

bool
readDoubles(std::istringstream &in, std::vector<double> &out,
            std::size_t n)
{
    out.clear();
    std::string tok;
    for (std::size_t i = 0; i < n; ++i) {
        if (!(in >> tok))
            return false;
        char *end = nullptr;
        const double v = std::strtod(tok.c_str(), &end);
        if (end == tok.c_str() || *end != '\0')
            return false;
        out.push_back(v);
    }
    return true;
}

} // namespace

Surrogate
Surrogate::fit(const Matrix &x, const std::vector<double> &primary,
               const std::vector<double> &energy_per_inst,
               const SurrogateOptions &options)
{
    const std::size_t n = x.rows();
    const std::size_t d = x.cols();
    if (n == 0 || d == 0)
        fatal("surrogate fit: empty training set");
    if (primary.size() != n || energy_per_inst.size() != n)
        fatal("surrogate fit: ", n, " rows but ", primary.size(),
              "/", energy_per_inst.size(), " targets");

    Surrogate s;
    s.dim_ = d;
    s.samples_ = n;
    s.noveltyWeight_ = options.noveltyWeight;

    // Per-dimension standardisation; constant columns get invStd 0
    // so they contribute nothing (the bias absorbs them).
    s.mean_.assign(d, 0.0);
    s.invStd_.assign(d, 0.0);
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < d; ++j)
            s.mean_[j] += x(i, j);
    for (double &m : s.mean_)
        m /= static_cast<double>(n);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < d; ++j) {
            const double c = x(i, j) - s.mean_[j];
            s.invStd_[j] += c * c;
        }
    }
    for (double &v : s.invStd_) {
        const double sd = std::sqrt(v / static_cast<double>(n));
        v = sd > 1e-12 ? 1.0 / sd : 0.0;
    }

    std::vector<std::vector<double>> z(n);
    for (std::size_t i = 0; i < n; ++i) {
        z[i].resize(d + 1);
        for (std::size_t j = 0; j < d; ++j)
            z[i][j] = (x(i, j) - s.mean_[j]) * s.invStd_[j];
        z[i][d] = 1.0;
    }

    s.primaryW_ = ridgeFit(z, primary, options.lambda, 0, 0);
    s.energyW_ = ridgeFit(z, energy_per_inst, options.lambda, 0, 0);

    // Confidence ensemble: member k is blind to every k-th sample,
    // so members disagree exactly where the data is thin.
    const std::size_t folds = std::max<std::size_t>(
        2, std::min(options.ensembleSize, n));
    s.foldW_.reserve(folds);
    for (std::size_t k = 0; k < folds; ++k)
        s.foldW_.push_back(
            ridgeFit(z, primary, options.lambda, folds, k));
    return s;
}

void
Surrogate::standardise(std::span<const double> x,
                       std::vector<double> &z) const
{
    z.resize(dim_ + 1);
    for (std::size_t j = 0; j < dim_; ++j)
        z[j] = (x[j] - mean_[j]) * invStd_[j];
    z[dim_] = 1.0;
}

SurrogatePrediction
Surrogate::predict(std::span<const double> x) const
{
    if (!trained())
        fatal("surrogate predict: model is untrained");
    if (x.size() != dim_)
        fatal("surrogate predict: feature dim ", x.size(),
              " (expected ", dim_, ")");

    std::vector<double> z;
    standardise(x, z);

    SurrogatePrediction p;
    p.primary = dot(primaryW_, z);
    p.energyPerInst = dot(energyW_, z);

    // Ensemble spread (sample stddev over fold heads).
    double mean = 0.0;
    for (const auto &w : foldW_)
        mean += dot(w, z);
    mean /= static_cast<double>(foldW_.size());
    double var = 0.0;
    for (const auto &w : foldW_) {
        const double dv = dot(w, z) - mean;
        var += dv * dv;
    }
    var /= static_cast<double>(foldW_.size());

    // Novelty: rms z-distance of the query from the training mean;
    // anything beyond ~1.5 standard units starts paying a penalty.
    double z2 = 0.0;
    for (std::size_t j = 0; j < dim_; ++j)
        z2 += z[j] * z[j];
    const double rms = std::sqrt(z2 / static_cast<double>(dim_));
    const double novelty = std::max(0.0, rms - 1.5);

    p.uncertainty = std::sqrt(var) + noveltyWeight_ * novelty;
    return p;
}

std::string
Surrogate::serialize() const
{
    std::ostringstream os;
    os << "adaptsim-surrogate 1\n";
    os << dim_ << ' ' << samples_ << ' ' << foldW_.size() << ' '
       << hexDouble(noveltyWeight_) << '\n';
    const auto emit = [&os](const std::vector<double> &v) {
        for (std::size_t i = 0; i < v.size(); ++i)
            os << (i ? " " : "") << hexDouble(v[i]);
        os << '\n';
    };
    emit(mean_);
    emit(invStd_);
    emit(primaryW_);
    emit(energyW_);
    for (const auto &w : foldW_)
        emit(w);
    return os.str();
}

bool
Surrogate::deserialize(const std::string &text, Surrogate &out)
{
    std::istringstream in(text);
    std::string magic;
    std::uint64_t version = 0;
    if (!(in >> magic >> version) ||
        magic != "adaptsim-surrogate" || version != 1)
        return false;
    std::size_t dim = 0, samples = 0, folds = 0;
    std::string nov;
    if (!(in >> dim >> samples >> folds >> nov) || dim == 0 ||
        folds == 0)
        return false;
    // serialize() ends every line with '\n'; without it the text is a
    // torn write.
    if (text.back() != '\n')
        return false;
    // Each value is a token plus a separator, so the remaining text
    // bounds how many can follow.  Reject counts it cannot hold
    // before anything is sized from them.
    const auto pos = in.tellg();
    const std::size_t rest =
        pos < 0 ? 0 : text.size() - static_cast<std::size_t>(pos);
    const std::size_t max_values = rest / 2;
    if (dim > max_values / 2)
        return false;
    // Weight vectors of dim + 1 values: primary, energy, the folds.
    const std::size_t max_sets = (max_values - 2 * dim) / (dim + 1);
    if (max_sets < 2 || folds > max_sets - 2)
        return false;

    Surrogate s;
    s.dim_ = dim;
    s.samples_ = samples;
    {
        char *end = nullptr;
        s.noveltyWeight_ = std::strtod(nov.c_str(), &end);
        if (end == nov.c_str())
            return false;
    }
    if (!readDoubles(in, s.mean_, dim) ||
        !readDoubles(in, s.invStd_, dim) ||
        !readDoubles(in, s.primaryW_, dim + 1) ||
        !readDoubles(in, s.energyW_, dim + 1))
        return false;
    for (std::size_t f = 0; f < folds; ++f) {
        std::vector<double> w;
        if (!readDoubles(in, w, dim + 1))
            return false;
        s.foldW_.push_back(std::move(w));
    }
    out = std::move(s);
    return true;
}

} // namespace adaptsim::ml
